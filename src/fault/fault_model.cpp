/**
 * @file
 * Fault model (paper Section 2.4, Fig. 3).
 *
 * Two fault types are modelled: a PE + router failing as a unit (all
 * incident physical links become faulty) and a full-duplex physical link
 * failing (both unidirectional wires become faulty). Healthy channels
 * incident on nodes adjacent to failed components are marked *unsafe* —
 * routing across them may lead to an encounter with a failed component,
 * which is what triggers the Two-Phase protocol's switch to conservative
 * SR flow control. Static failures are placed before the run; dynamic
 * failures all fire through Network::strike and interrupt live circuits
 * (recovery in fault/recovery.cpp).
 */

#include <unordered_set>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

void
Network::setDynamicFaultProcess(double per_cycle_prob, int max_faults)
{
    faultProcs_[0] = {FaultKind::NodeKill, per_cycle_prob, max_faults};
}

void
Network::setDynamicLinkFaultProcess(double per_cycle_prob, int max_faults)
{
    faultProcs_[1] = {FaultKind::LinkKill, per_cycle_prob, max_faults};
}

void
Network::setIntermittentLinkFaultProcess(double per_cycle_prob,
                                         int max_faults,
                                         Cycle down_cycles)
{
    faultProcs_[2] = {FaultKind::LinkIntermittent, per_cycle_prob,
                      max_faults, down_cycles};
}

std::optional<FaultEvent>
Network::strike(const FaultEvent &ev, Rng &rng)
{
    FaultEvent hit = ev;
    // A pinned victim the topology does not have is skipped like one
    // already down.
    auto onTopology = [this](NodeId node) {
        return node >= 0 && node < topo_->nodes();
    };
    if (ev.kind == FaultKind::NodeKill) {
        hit.port = -1;
        hit.downFor = 0;
        // Keep at least two healthy nodes so traffic stays definable.
        const auto healthy = healthyNodes();
        const int draws = healthy.size() > 2 ? 64 : 0;
        for (int attempt = 0; hit.node == invalidNode && attempt < draws;
             ++attempt) {
            const NodeId cand = healthy[rng.below(
                static_cast<std::uint64_t>(healthy.size()))];
            if (!cfg_.protectPerimeter || cand != 0)
                hit.node = cand;
        }
        if (!onTopology(hit.node) || nodeFaulty(hit.node))
            return std::nullopt;
        ++counters_.dynamicFaults;
        failNode(hit.node);
    } else {
        // A healthy full-duplex link between healthy endpoints
        // (structurally absent channels are permanently faulty).
        auto strikeable = [this](const Link &lk) {
            return !lk.faulty && !nodeFaulty(lk.src) && !nodeFaulty(lk.dst);
        };
        for (int attempt = 0; hit.node == invalidNode && attempt < 256;
             ++attempt) {
            const Link &lk = link(static_cast<LinkId>(
                rng.below(static_cast<std::uint64_t>(topo_->links()))));
            if (strikeable(lk)) {
                hit.node = lk.src;
                hit.port = lk.srcPort;
            }
        }
        if (!onTopology(hit.node) || hit.port < 0 ||
            hit.port >= topo_->radix() ||
            !strikeable(linkAt(hit.node, hit.port)))
            return std::nullopt;
        ++counters_.dynamicFaults;
        if (ev.kind == FaultKind::LinkKill) {
            hit.downFor = 0;
            failLink(hit.node, hit.port);
        } else {
            ++counters_.intermittentFaults;
            hit.downFor = ev.downFor > 0 ? ev.downFor : 1;
            failLinkIntermittent(hit.node, hit.port, hit.downFor);
        }
    }
    return hit;
}

void
Network::killAffectedCircuits(const std::vector<LinkId> &failed)
{
    if (skipKillSweep_)
        return;  // test hook: deliberately broken recovery
    // Victims are killed in discovery order (failed-link order, then VC
    // index) so the teardown event sequence — and hence trace digests —
    // is identical across standard-library hash implementations.
    std::unordered_set<MsgId> seen;
    std::vector<MsgId> victims;
    for (LinkId id : failed) {
        for (int v = 0; v < plane_.vcsPerLink(); ++v) {
            const MsgId owner = plane_.vc(id, v).owner;
            if (owner != invalidMsg && seen.insert(owner).second)
                victims.push_back(owner);
        }
    }
    for (MsgId id : victims) {
        if (Message *msg = findMessage(id))
            killMessage(*msg);
    }

    // Control-lane flits queued on the failed wires die with them.
    // Walkers that release path hops as they travel (message
    // acknowledgments, kill flits) may no longer own a trio on this
    // link, so the ownership sweep above cannot see their message —
    // silently discarding one would strand its circuit forever, upstream
    // hops held and nothing left in flight. Complete those walks
    // synchronously before the queues are dropped (every other control
    // type still rides a wire its message owns, so its circuit was
    // already torn down above).
    for (LinkId id : failed) {
        Link &wire = link(id);
        for (auto *q : {&wire.ctrlQ, &wire.ackQ}) {
            for (std::size_t i = 0; i < q->size(); ++i)
                salvageControlFlit((*q)[i]);
            q->clear();
        }
        ctrlActive_.remove(static_cast<std::uint32_t>(id));
    }
}

void
Network::salvageControlFlit(const Flit &flit)
{
    Message *msg = findMessage(flit.msg);
    if (!msg || msg->terminal() || flit.epoch != msg->epoch)
        return;
    switch (flit.type) {
      case FlitType::MsgAck:
      case FlitType::KillUp:
      case FlitType::KillDown:
        // A hop-releasing walker mid-crossing: the same completion as
        // a walker that finds its next wire dead.
        cutWalkShort(*msg, flit);
        break;

      case FlitType::Header:
        // A probe retreating over this wire dies with it. The probe
        // released its frontier hop when it decided to backtrack, so it
        // owns no trio on either direction of this link and the
        // ownership sweep above cannot see its message: silently
        // discarding the flit would leave the circuit Active but with
        // no probe in flight and no RCU entry — stranded forever.
        // killMessage finds no broken hop and tears the remaining
        // circuit down from the frontier (forward-travelling headers
        // ride the trio they just reserved, so the sweep already
        // killed them and the teardown guard makes this a no-op).
        ++counters_.headersSalvaged;
        killMessage(*msg);
        break;

      default:
        break;
    }
}

void
Network::failNode(NodeId id)
{
    Router &rt = router(id);
    if (rt.faulty)
        return;

    std::vector<LinkId> failed;
    for (int port = 0; port < topo_->radix(); ++port) {
        Link &out = linkAt(id, port);
        if (!out.faulty) {
            out.faulty = true;
            failed.push_back(out.id);
        }
        Link &in = link(topo_->reverseLink(out.id));
        if (!in.faulty) {
            in.faulty = true;
            failed.push_back(in.id);
        }
    }
    rt.faulty = true;
    rt.rcuQueue.clear();
    rcuActive_.remove(static_cast<std::uint32_t>(id));

    killAffectedCircuits(failed);

    // Messages queued at the failed PE die with it.
    auto &queue = injQ_[static_cast<std::size_t>(id)];
    std::vector<MsgId> queued(queue.begin(), queue.end());
    for (MsgId mid : queued) {
        if (Message *msg = findMessage(mid)) {
            if (msg->tearingDown()) {
                // killMessage above already owns the teardown; the drop
                // happens when its walks complete.
                continue;
            }
            dropMessage(*msg, false);
        }
    }
    queue.clear();

    recomputeUnsafe();
}

void
Network::failLink(NodeId node, int port)
{
    std::vector<LinkId> failed;
    Link &fwd = linkAt(node, port);
    // A new failure supersedes any scheduled restoration of this link
    // (an intermittent glitch followed by a hard failure must not come
    // back). failLinkIntermittent re-registers its restore afterwards.
    for (std::size_t i = 0; i < pendingRestores_.size();) {
        const Link &pending =
            linkAt(pendingRestores_[i].node, pendingRestores_[i].port);
        if (pending.id == fwd.id ||
            topo_->reverseLink(pending.id) == fwd.id) {
            pendingRestores_[i] = pendingRestores_.back();
            pendingRestores_.pop_back();
        } else {
            ++i;
        }
    }
    if (!fwd.faulty) {
        fwd.faulty = true;
        failed.push_back(fwd.id);
    }
    Link &rev = link(topo_->reverseLink(fwd.id));
    if (!rev.faulty) {
        rev.faulty = true;
        failed.push_back(rev.id);
    }
    killAffectedCircuits(failed);
    recomputeUnsafe();
}

void
Network::failLinkIntermittent(NodeId node, int port, Cycle down_cycles)
{
    const Link &fwd = linkAt(node, port);
    if (fwd.absent)
        return;  // structurally missing channels cannot glitch
    failLink(node, port);
    pendingRestores_.push_back({node, port, now_ + down_cycles});
}

bool
Network::restoreLink(NodeId node, int port)
{
    Link &fwd = linkAt(node, port);
    Link &rev = link(topo_->reverseLink(fwd.id));
    if (fwd.absent || rev.absent)
        return false;
    if (nodeFaulty(fwd.src) || nodeFaulty(fwd.dst))
        return false;  // the endpoint died while the link was down
    if (!fwd.faulty && !rev.faulty)
        return true;   // already in service

    // Re-validation: the link may only return to service once the
    // teardown of every interrupted circuit has swept past it — no trio
    // of either wire still owned, buffered, mapped, or gated.
    for (const Link *wire : {&fwd, &rev}) {
        for (int v = 0; v < plane_.vcsPerLink(); ++v) {
            const VcState &vc = plane_.vc(wire->id, v);
            if (!vc.free() || !vc.empty())
                return false;
        }
    }

    for (Link *wire : {&fwd, &rev}) {
        wire->faulty = false;
        wire->unsafe = false;
        wire->ctrlQ.clear();
        wire->ackQ.clear();
        ctrlActive_.remove(static_cast<std::uint32_t>(wire->id));
        // Reset mappings, counters, K registers.
        for (int v = 0; v < plane_.vcsPerLink(); ++v)
            plane_.vc(wire->id, v).release();
    }
    ++counters_.linksRestored;
    recomputeUnsafe();
    return true;
}

void
Network::stepRestores()
{
    for (std::size_t i = 0; i < pendingRestores_.size();) {
        PendingRestore &pr = pendingRestores_[i];
        if (pr.at > now_) {
            ++i;
            continue;
        }
        const Link &fwd = linkAt(pr.node, pr.port);
        if (nodeFaulty(fwd.src) || nodeFaulty(fwd.dst)) {
            // An endpoint died in the meantime: the link failure is
            // subsumed by the node failure; abandon the restoration.
            pendingRestores_[i] = pendingRestores_.back();
            pendingRestores_.pop_back();
            continue;
        }
        if (!restoreLink(pr.node, pr.port)) {
            // Teardown still sweeping: re-try next cycle.
            ++i;
            continue;
        }
        pendingRestores_[i] = pendingRestores_.back();
        pendingRestores_.pop_back();
    }
}

void
Network::recomputeUnsafe()
{
    for (Link &lk : links_)
        lk.unsafe = false;
    if (!cfg_.markUnsafe)
        return;  // aggressive designs may skip the designation entirely

    // Every healthy channel incident on a node adjacent to a failed
    // component becomes unsafe (Section 2.4).
    auto markNode = [this](NodeId node) {
        for (int port = 0; port < topo_->radix(); ++port) {
            Link &out = linkAt(node, port);
            if (!out.faulty)
                out.unsafe = true;
            Link &in = link(topo_->reverseLink(out.id));
            if (!in.faulty)
                in.unsafe = true;
        }
    };

    for (const Link &lk : links_) {
        if (!lk.faulty || lk.absent)
            continue;  // absent mesh channels are not failures
        if (!nodeFaulty(lk.src))
            markNode(lk.src);
        if (!nodeFaulty(lk.dst))
            markNode(lk.dst);
    }
}

void
Network::applyStaticFaults()
{
    auto protectedNode = [this](NodeId id) {
        if (!cfg_.protectPerimeter)
            return false;
        if (id == 0)
            return true;
        for (int port = 0; port < topo_->radix(); ++port) {
            if (topo_->neighbor(0, port) == id)
                return true;
        }
        return false;
    };

    int placed = 0;
    int guard = 0;
    while (placed < cfg_.staticNodeFaults) {
        if (++guard > 1000 * cfg_.nodes())
            tpnet_fatal("unable to place static node faults");
        const NodeId id =
            static_cast<NodeId>(rng_.below(
                static_cast<std::uint64_t>(topo_->nodes())));
        if (nodeFaulty(id) || protectedNode(id))
            continue;
        failNode(id);
        ++placed;
    }

    placed = 0;
    guard = 0;
    while (placed < cfg_.staticLinkFaults) {
        if (++guard > 1000 * topo_->links())
            tpnet_fatal("unable to place static link faults");
        const LinkId id = static_cast<LinkId>(
            rng_.below(static_cast<std::uint64_t>(topo_->links())));
        const Link &lk = link(id);
        if (lk.faulty || nodeFaulty(lk.src) || nodeFaulty(lk.dst))
            continue;
        failLink(lk.src, lk.srcPort);
        ++placed;
    }
}

void
Network::stepDynamicFaults()
{
    for (FaultProcess &proc : faultProcs_) {
        if (proc.budget > 0 && proc.prob > 0.0 && rng_.chance(proc.prob) &&
            strike({now_, proc.kind, invalidNode, -1, proc.down}, rng_)) {
            --proc.budget;
        }
    }
}

std::vector<NodeId>
Network::healthyNodes() const
{
    std::vector<NodeId> out;
    out.reserve(routers_.size());
    for (const Router &rt : routers_) {
        if (!rt.faulty)
            out.push_back(rt.id);
    }
    return out;
}

} // namespace tpnet
