#include "core/validator.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

namespace {

/** Identity of one trio for cross-referencing. */
struct VcKey
{
    LinkId link;
    int vc;

    bool operator==(const VcKey &o) const
    {
        return link == o.link && vc == o.vc;
    }
};

struct VcKeyHash
{
    std::size_t
    operator()(const VcKey &k) const
    {
        return std::hash<std::int64_t>()(
            (static_cast<std::int64_t>(k.link) << 8) ^ k.vc);
    }
};

} // namespace

std::vector<Violation>
validateNetwork(Network &net)
{
    std::vector<Violation> out;
    auto fail = [&out](const std::string &msg) {
        out.push_back({msg});
    };
    std::ostringstream os;
    const Topology &topo = net.topo();

    // Pass 1: collect ownership claimed by the messages' paths.
    std::unordered_map<VcKey, MsgId, VcKeyHash> claimed;
    std::unordered_set<MsgId> live;
    for (MsgId id : net.liveMessageIds()) {
        Message *msg = net.findMessage(id);
        live.insert(id);

        if (msg->terminal())
            continue;
        for (std::size_t i = 0; i < msg->path.size(); ++i) {
            const PathHop &hop = msg->path[i];
            if (hop.vc < 0 || hop.vc >= net.vcCount()) {
                os.str("");
                os << "msg " << id << " hop " << i << " bad vc "
                   << hop.vc;
                fail(os.str());
                continue;
            }
            const VcState &vc = net.vc(hop.link, hop.vc);
            if (vc.owner == msg->id) {
                const VcKey key{hop.link, hop.vc};
                if (claimed.count(key)) {
                    os.str("");
                    os << "trio (" << hop.link << "," << hop.vc
                       << ") on two paths";
                    fail(os.str());
                }
                claimed[key] = msg->id;
            }
        }

        // Message-level invariants.
        if (msg->injectedFlits > msg->length) {
            os.str("");
            os << "msg " << id << " injected " << msg->injectedFlits
               << " > length " << msg->length;
            fail(os.str());
        }
        if (msg->arrivedFlits > msg->injectedFlits) {
            os.str("");
            os << "msg " << id << " arrived " << msg->arrivedFlits
               << " > injected " << msg->injectedFlits;
            fail(os.str());
        }
        if (msg->hdr.misroutes < 0) {
            os.str("");
            os << "msg " << id << " negative outstanding misroutes";
            fail(os.str());
        }
        if (!msg->beingKilled && msg->state == MsgState::Active &&
            msg->srcRouted && msg->path.empty()) {
            os.str("");
            os << "msg " << id << " srcRouted with empty path";
            fail(os.str());
        }
    }

    // Pass 2: every owned trio belongs to a live message and its
    // buffered flits belong to its owner; mappings are consistent; the
    // cached occupancy and front-ready cycle match the DIBU's slots.
    const DataPlane &plane = net.dataPlane();
    for (LinkId link_id = 0; link_id < topo.links(); ++link_id) {
        const Link &lk = net.link(link_id);
        for (int v = 0; v < net.vcCount(); ++v) {
            const VcIndex vi = plane.index(link_id, v);
            const VcState &vc = plane[vi];
            std::size_t occupied = 0;
            for (std::size_t s = 0; s < plane.depth(); ++s) {
                if (plane.slot(vi, s).msg != invalidMsg)
                    ++occupied;
            }
            if (occupied != vc.size()) {
                os.str("");
                os << "trio (" << link_id << "," << v << ") caches "
                   << vc.size() << " buffered flits, its DIBU slots hold "
                   << occupied;
                fail(os.str());
            }
            if (!vc.empty() && vc.frontReady != plane.at(vi, 0).readyAt) {
                os.str("");
                os << "trio (" << link_id << "," << v
                   << ") caches front-ready cycle " << vc.frontReady
                   << ", its front flit says " << plane.at(vi, 0).readyAt;
                fail(os.str());
            }
            if (vc.free()) {
                if (!vc.empty()) {
                    os.str("");
                    os << "free trio (" << link_id << "," << v
                       << ") holds " << vc.size() << " flits";
                    fail(os.str());
                }
                continue;
            }
            if (!live.count(vc.owner)) {
                os.str("");
                os << "trio (" << link_id << "," << v
                   << ") owned by retired msg " << vc.owner;
                fail(os.str());
            }
            if (lk.faulty && !lk.absent) {
                // A circuit crossing a failed link must be mid-teardown:
                // the spanning routers release these trios synchronously
                // when the failure is detected, so between cycles the
                // only legal owner is a message whose kill (or tail-ack
                // release) walks are still sweeping other hops.
                Message *owner = net.findMessage(vc.owner);
                const bool tearing = owner &&
                    (owner->beingKilled ||
                     owner->state == MsgState::Delivered);
                if (!tearing) {
                    os.str("");
                    os << "trio (" << link_id << "," << v
                       << ") on faulty link still owned by msg "
                       << vc.owner << " with no teardown in progress";
                    fail(os.str());
                }
            }
            for (std::size_t i = 0; i < vc.size(); ++i) {
                const Flit &flit = plane.at(vi, i);
                if (flit.msg != vc.owner) {
                    os.str("");
                    os << "foreign flit (msg " << flit.msg
                       << ") in trio (" << link_id << "," << v
                       << ") of msg " << vc.owner;
                    fail(os.str());
                }
            }
            if (vc.counter < 0) {
                os.str("");
                os << "negative CMU counter on trio (" << link_id
                   << "," << v << ")";
                fail(os.str());
            }
            if (vc.routed && vc.outPort != ejectPort) {
                if (vc.outPort < 0 || vc.outPort >= topo.radix()) {
                    os.str("");
                    os << "bad mapping port " << vc.outPort;
                    fail(os.str());
                } else {
                    const Link &out = net.linkAt(lk.dst, vc.outPort);
                    const VcState &tvc = net.vc(out.id, vc.outVc);
                    // A mismatch is only legal transiently while a
                    // teardown (kill) walk or a tail-acknowledgment
                    // release walk is sweeping the circuit.
                    Message *owner = net.findMessage(vc.owner);
                    const bool sweeping = owner &&
                        (owner->beingKilled ||
                         owner->state == MsgState::Delivered);
                    if (tvc.owner != vc.owner && !sweeping) {
                        os.str("");
                        os << "mapping of trio (" << link_id << ","
                           << v << ") crosses circuits";
                        fail(os.str());
                    }
                }
            }
        }
    }

    // Pass 3: router mapped-input lists point at trios actually mapped
    // to that output, and each list's cached flit count matches them.
    for (NodeId node = 0; node < topo.nodes(); ++node) {
        const Router &rt = net.router(node);
        for (int port = ejectPort; port < topo.radix(); ++port) {
            if (port == -1)
                continue;
            std::size_t flits = 0;
            for (VcIndex in : rt.mappedInputs(port)) {
                const VcState &vc = plane[in];
                flits += vc.size();
                if (!vc.routed || vc.outPort != port) {
                    os.str("");
                    if (port == ejectPort)
                        os << "stale eject mapping at node " << node;
                    else
                        os << "stale mapped-input at node " << node
                           << " port " << port;
                    fail(os.str());
                }
            }
            if (flits != net.mappedFlits(node, port)) {
                os.str("");
                os << "node " << node << " port " << port << " caches "
                   << net.mappedFlits(node, port)
                   << " flits in mapped inputs, its crossbar list holds "
                   << flits;
                fail(os.str());
            }
        }
    }

    // Pass 4: the message table's id window, slots and free list agree,
    // and the network's live count matches it.
    const std::string store = net.messageStore().audit();
    if (!store.empty())
        fail(store);
    if (net.activeMessages() != net.messageStore().size()) {
        os.str("");
        os << "network counts " << net.activeMessages()
           << " live messages, its message table holds "
           << net.messageStore().size();
        fail(os.str());
    }

    return out;
}

void
assertConsistent(Network &net)
{
    const auto violations = validateNetwork(net);
    if (violations.empty())
        return;
    std::ostringstream os;
    for (const Violation &v : violations)
        os << "\n  " << v.what;
    tpnet_panic("network inconsistent at cycle ", net.now(), ":",
                os.str());
}

} // namespace tpnet
