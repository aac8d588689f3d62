#include "verify/cwg.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {
namespace verify {

const char *
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::Benign:      return "benign-transient";
      case CycleClass::EscapeCycle: return "escape-cycle";
      case CycleClass::Knot:        return "knot";
      case CycleClass::Persistent:  return "persistent";
    }
    return "?";
}

CwgTracker::CwgTracker(Network &net, CwgConfig cfg)
    : net_(net), cfg_(cfg), waiters_(net.dataPlane().size())
{
}

const CwgTracker::Waiter *
CwgTracker::find(MsgId id) const
{
    const std::optional<std::uint32_t> s = net_.messageStore().slot(id);
    if (!s || *s >= records_.size())
        return nullptr;
    const Waiter &w = records_[*s];
    return w.id == id ? &w : nullptr;
}

CwgTracker::Waiter *
CwgTracker::find(MsgId id)
{
    return const_cast<Waiter *>(std::as_const(*this).find(id));
}

CwgTracker::Waiter &
CwgTracker::recordOf(MsgId id)
{
    const MessageStore &store = net_.messageStore();
    const std::optional<std::uint32_t> s = store.slot(id);
    if (!s)
        tpnet_panic("CWG record for message ", id, ", which is not live");
    if (*s >= records_.size())
        records_.resize(store.slotCount());
    Waiter &w = records_[*s];
    if (w.id != id) {
        if (!w.empty())
            tpnet_panic("CWG record of retired message ", w.id,
                        " still holds waits under message ", id);
        w.id = id;
    }
    return w;
}

// --- Hook protocol ---------------------------------------------------------

void
CwgTracker::beginEvaluation(const Message &msg)
{
    evalMsg_ = msg.id;
    scratch_.clear();
}

void
CwgTracker::noteCandidate(NodeId node, int port, int vc)
{
    if (evalMsg_ == invalidMsg)
        return;  // route() called outside an RCU evaluation (tests)
    scratch_.push_back(
        net_.dataPlane().index(net_.linkAt(node, port).id, vc));
}

void
CwgTracker::onBlocked(const Message &msg)
{
    if (msg.id != evalMsg_)
        return;
    evalMsg_ = invalidMsg;

    // Resolve owners at commit time; free or self-owned trios are not
    // waits (the latter would be a self-loop, never a deadlock edge).
    // The committed candidate count excludes only self-owned trios: a
    // candidate that is free at commit (or freed later) is an exit,
    // which the knot check reads off as waitCount < committed.
    std::sort(scratch_.begin(), scratch_.end());
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    std::vector<WaitRec> next;
    next.reserve(scratch_.size());
    std::size_t committed = 0;
    for (VcIndex key : scratch_) {
        const MsgId owner = net_.dataPlane()[key].owner;
        if (owner == msg.id)
            continue;
        ++committed;
        if (owner == invalidMsg)
            continue;
        next.push_back({key, owner});
    }
    Waiter &w = recordOf(msg.id);
    w.committed = committed;
    commitWaits(w, std::move(next));
}

void
CwgTracker::onVcReleased(LinkId link, int vc)
{
    // Each waiter's edit touches only its own record, never a waiter
    // list, so the list is walked in place and emptied after.
    const VcIndex key = net_.dataPlane().index(link, vc);
    std::vector<MsgId> &waiting = waiters_[key];
    for (MsgId id : waiting) {
        Waiter *w = find(id);
        if (!w)
            continue;
        auto &recs = w->waits;
        for (std::size_t i = 0; i < recs.size();) {
            if (recs[i].key == key) {
                const MsgId owner = recs[i].owner;
                recs[i] = recs.back();
                recs.pop_back();
                --waitTotal_;
                removeEdge(*w, owner);
            } else {
                ++i;
            }
        }
    }
    waiting.clear();
}

void
CwgTracker::onMessageGone(MsgId id)
{
    if (id == evalMsg_)
        evalMsg_ = invalidMsg;
    if (Waiter *w = find(id)) {
        w->committed = 0;
        clearWaits(*w);
    }
}

// --- Wait-set maintenance --------------------------------------------------

void
CwgTracker::commitWaits(Waiter &w, std::vector<WaitRec> next)
{
    // Diff against the previous wait set so unchanged waits insert no
    // edges (the common case for a message blocked over many cycles).
    auto countOwners = [](const std::vector<WaitRec> &recs) {
        std::unordered_map<MsgId, int> c;
        for (const WaitRec &r : recs)
            ++c[r.owner];
        return c;
    };
    auto hasKey = [](const std::vector<WaitRec> &recs, VcIndex key) {
        return std::any_of(recs.begin(), recs.end(),
                           [key](const WaitRec &r) { return r.key == key; });
    };

    const auto before = countOwners(w.waits);
    const auto after = countOwners(next);

    // Waiter lists: drop stale entries, add fresh ones.
    for (const WaitRec &r : w.waits) {
        if (!hasKey(next, r.key))
            unlist(r.key, w.id);
    }
    for (const WaitRec &r : next) {
        if (!hasKey(w.waits, r.key))
            waiters_[r.key].push_back(w.id);
    }
    waitTotal_ = waitTotal_ - w.waits.size() + next.size();
    w.waits = std::move(next);

    // An edge goes when its owner's last wait goes and comes with the
    // owner's first; new edges enter in the order of `after`.
    for (const auto &[owner, n] : before) {
        if (!after.count(owner))
            removeEdge(w, owner);
    }
    for (const auto &[owner, n] : after) {
        if (!before.count(owner))
            addEdge(w, owner);
    }
}

void
CwgTracker::clearWaits(Waiter &w)
{
    for (const WaitRec &r : w.waits)
        unlist(r.key, w.id);
    waitTotal_ -= w.waits.size();
    w.waits.clear();
    w.out.clear();
}

void
CwgTracker::unlist(VcIndex key, MsgId id)
{
    std::vector<MsgId> &list = waiters_[key];
    auto it = std::find(list.begin(), list.end(), id);
    if (it != list.end()) {
        *it = list.back();
        list.pop_back();
    }
}

// --- Incremental cycle detection ------------------------------------------

void
CwgTracker::addEdge(Waiter &u, MsgId v)
{
    u.out.push_back({v, false});
    std::vector<MsgId> cycle;
    if (closesCycle(u.id, v, &cycle)) {
        // Keep the DAG acyclic by leaving the edge out (the true graph
        // still holds it; the periodic sweep tracks its persistence)
        // and report the cycle now.
        reportCycle(cycle);
    } else {
        u.out.back().inDag = true;
    }
}

void
CwgTracker::removeEdge(Waiter &u, MsgId v)
{
    // The edge stays while another wait of u names the same owner.
    for (const WaitRec &r : u.waits) {
        if (r.owner == v)
            return;
    }
    auto it = std::find_if(u.out.begin(), u.out.end(),
                           [v](const Out &o) { return o.to == v; });
    if (it != u.out.end())
        u.out.erase(it);
}

bool
CwgTracker::closesCycle(MsgId u, MsgId v,
                        std::vector<MsgId> *cycle_out) const
{
    const Waiter *head = find(v);
    if (!head || std::none_of(head->out.begin(), head->out.end(),
                              [](const Out &o) { return o.inDag; }))
        return false;  // no DAG edge leaves v: the common case

    // LIFO depth-first search from v over the DAG; reaching u closes
    // the cycle u -> v -> ... -> w -> u.
    std::unordered_map<MsgId, MsgId> parent;
    std::unordered_set<MsgId> seen{v};
    std::vector<MsgId> stack{v};
    while (!stack.empty()) {
        const MsgId w = stack.back();
        stack.pop_back();
        const Waiter *rec = find(w);
        if (!rec)
            continue;
        for (const Out &o : rec->out) {
            if (!o.inDag)
                continue;
            const MsgId x = o.to;
            if (x == u) {
                cycle_out->clear();
                for (MsgId y = w;; y = parent.at(y)) {
                    cycle_out->push_back(y);
                    if (y == v)
                        break;
                }
                std::reverse(cycle_out->begin(), cycle_out->end());
                cycle_out->push_back(u);
                // Rotate so the blocked inserter leads the report.
                std::rotate(cycle_out->begin(), cycle_out->end() - 1,
                            cycle_out->end());
                return true;
            }
            if (seen.insert(x).second) {
                parent[x] = w;
                stack.push_back(x);
            }
        }
    }
    return false;
}

// --- Classification and diagnosis -----------------------------------------

std::vector<MsgId>
CwgTracker::closureOf(const std::vector<MsgId> &members) const
{
    std::vector<MsgId> closure;
    std::unordered_set<MsgId> seen;
    std::vector<MsgId> stack;
    for (MsgId id : members) {
        if (seen.insert(id).second)
            stack.push_back(id);
    }
    while (!stack.empty()) {
        const MsgId v = stack.back();
        stack.pop_back();
        closure.push_back(v);
        const Waiter *w = find(v);
        if (!w)
            continue;
        for (const Out &o : w->out) {
            if (seen.insert(o.to).second)
                stack.push_back(o.to);
        }
    }
    return closure;
}

bool
CwgTracker::hasExit(MsgId id) const
{
    const Message *msg = net_.findMessage(id);
    if (!msg)
        return true;  // retired while its edges drain: progressing
    const Waiter *w = find(id);
    if (!w || w->committed == 0)
        return true;  // not blocked (it owns trios and progresses), or
                      // blocked with an unknown candidate set:
                      // conservatively assume a way out (every such
                      // block site is stall-limit-guarded)
    if (w->waits.size() < w->committed)
        return true;  // a committed candidate has been freed
    return net_.canBacktrack(*msg) || net_.protocol().abortsOnStall(*msg);
}

CycleClass
CwgTracker::classify(const std::vector<MsgId> &members) const
{
    const int escapeVcs = net_.escapeVcCount();
    const DataPlane &plane = net_.dataPlane();

    // Recovery mode frees the escape partition for fully adaptive use:
    // there is no acyclic escape order left to violate, so the
    // EscapeCycle verdict is meaningless and only the knot check
    // decides deadlock.
    if (!recovery_) {
        // Theorem 3 demands that the *escape* channel dependency graph
        // stay acyclic. A member is committed to the escape subnetwork
        // only when every wait it holds is on an escape-class trio; a
        // cycle of such members breaks Duato's acyclic escape order
        // outright, no reachability argument needed.
        const auto escapeCommitted = [&](MsgId id) {
            const Waiter *w = find(id);
            return w && !w->waits.empty() &&
                   std::all_of(w->waits.begin(), w->waits.end(),
                               [&](const WaitRec &r) {
                                   return plane.vcOf(r.key) < escapeVcs;
                               });
        };
        if (std::all_of(members.begin(), members.end(), escapeCommitted))
            return CycleClass::EscapeCycle;
    }

    // Knot check: the cycle is a true deadlock only if *nothing* in its
    // reachable closure can progress — every member's entire candidate
    // set is owned inside the closure (owners of committed candidates
    // are reachable by construction), and no closure member has an
    // exit. One exit anywhere dissolves the whole region eventually:
    // the benign OR-wait transient of Theorem 3.
    for (MsgId id : closureOf(members)) {
        if (hasExit(id))
            return CycleClass::Benign;
    }
    return CycleClass::Knot;
}

std::string
CwgTracker::diagnose(const std::vector<MsgId> &members,
                     CycleClass cls) const
{
    const int escapeVcs = net_.escapeVcCount();
    const DataPlane &plane = net_.dataPlane();
    std::ostringstream os;
    os << "wait cycle (" << cycleClassName(cls) << ", "
       << members.size() << " members): ";

    const std::size_t n = members.size();
    for (std::size_t i = 0; i < n; ++i) {
        const MsgId id = members[i];
        const MsgId next = members[(i + 1) % n];
        if (i)
            os << "; ";
        os << "msg " << id;
        if (const Message *msg = net_.findMessage(id)) {
            const char *phase =
                msg->hdr.detour                      ? "detour"
                : msg->hdr.sr                        ? "SR"
                : msg->hdr.flow == FlowMode::PcsSetup ? "PCS"
                                                      : "WR";
            os << " [node " << msg->hdr.cur << ", phase " << phase
               << ", K=" << msg->srcK << "]";
        }
        bool found = false;
        if (const Waiter *w = find(id)) {
            for (const WaitRec &r : w->waits) {
                if (r.owner != next)
                    continue;
                const int vc = plane.vcOf(r.key);
                os << " waits on link " << plane.linkOf(r.key) << " vc "
                   << vc;
                if (vc < escapeVcs)
                    os << " (escape class " << vc << ")";
                else
                    os << " (adaptive)";
                os << " [kReg=" << plane[r.key].kReg << "] owned by msg "
                   << next;
                found = true;
                break;
            }
        }
        if (!found)
            os << " -> msg " << next;
    }
    if (cls == CycleClass::Knot)
        os << "; knot closure: " << closureOf(members).size()
           << " message(s), no exit";
    return os.str();
}

std::string
CwgTracker::describeWaits(MsgId id) const
{
    const Waiter *w = find(id);
    if (!w || w->waits.empty())
        return "";
    const int escapeVcs = net_.escapeVcCount();
    const DataPlane &plane = net_.dataPlane();
    std::ostringstream os;
    const char *sep = "";
    for (const WaitRec &r : w->waits) {
        const int vc = plane.vcOf(r.key);
        os << sep << "link " << plane.linkOf(r.key) << " vc " << vc
           << (vc < escapeVcs ? " (escape)" : " (adaptive)")
           << " owned by msg " << r.owner;
        sep = ", ";
    }
    return os.str();
}

std::size_t
CwgTracker::waitCount(MsgId id) const
{
    const Waiter *w = find(id);
    return w ? w->waits.size() : 0;
}

std::size_t
CwgTracker::edgeCount() const
{
    return waitTotal_;
}

std::uint64_t
CwgTracker::memberHash(const std::vector<MsgId> &members)
{
    std::vector<MsgId> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t h = 14695981039346656037ull;
    for (MsgId id : sorted) {
        h ^= static_cast<std::uint64_t>(id);
        h *= 1099511628211ull;
    }
    return h;
}

void
CwgTracker::reportCycle(const std::vector<MsgId> &members)
{
    const std::uint64_t hash = memberHash(members);
    const CycleClass cls = classify(members);
    const std::string diag = diagnose(members, cls);
    lastDiagnosis_ = diag;

    // Recovery mode: a knot is the heal engine's problem, not (yet) a
    // violation. Queue it once per formation; while the heal is in
    // flight re-detections are suppressed, and knotHealed() re-arms
    // the hash so a re-formed knot is queued (and counted) again.
    if (recovery_ && cls == CycleClass::Knot) {
        if (healing_.insert(hash).second) {
            ++cyclesDetected_;
            pendingKnots_.push_back({{cls, net_.now(), hash, members, diag},
                                     closureOf(members)});
        }
        return;
    }

    auto [it, fresh] = seen_.try_emplace(hash);
    CycleSeen &seen = it->second;
    if (fresh) {
        ++cyclesDetected_;
        if (!isViolation(cls))
            ++benignDetected_;
    }

    if (isViolation(cls)) {
        if (!seen.violation && violations_.size() < cfg_.maxViolations)
            violations_.push_back({cls, net_.now(), hash, members, diag});
        seen.violation = true;
        return;
    }

    // Benign: remember when we first saw it so the sweep can flag a
    // "transient" that refuses to resolve.
    if (!seen.benignSince)
        seen.benignSince = net_.now();
}

// --- Recovery mode ---------------------------------------------------------

std::vector<PendingKnot>
CwgTracker::takePendingKnots()
{
    std::vector<PendingKnot> out;
    out.swap(pendingKnots_);
    return out;
}

void
CwgTracker::knotHealed(std::uint64_t hash)
{
    healing_.erase(hash);
}

void
CwgTracker::escalate(const PendingKnot &knot)
{
    const std::uint64_t hash = knot.cycle.hash;
    // The hash stays in healing_: once escalated, further re-detections
    // of the same knot are noise — the verdict is already terminal.
    healing_.insert(hash);
    CycleSeen &seen = seen_[hash];
    if (!seen.violation && violations_.size() < cfg_.maxViolations) {
        CwgCycle c = knot.cycle;
        c.at = net_.now();
        c.diagnosis += "; heal budget exhausted (livelock escalation)";
        lastDiagnosis_ = c.diagnosis;
        violations_.push_back(std::move(c));
    }
    seen.violation = true;
}

void
CwgTracker::onCycleEnd(Cycle now)
{
    if (cfg_.sweepEvery == 0)
        return;
    if (now - lastSweep_ < cfg_.sweepEvery)
        return;
    lastSweep_ = now;
    sweep(now);
}

bool
CwgTracker::idleForSkip() const
{
    return waitTotal_ == 0 && pendingKnots_.empty() && healing_.empty() &&
        (cfg_.sweepEvery == 0 ||
         std::none_of(seen_.begin(), seen_.end(), [](const auto &e) {
             return e.second.benignSince.has_value();
         }));
}

void
CwgTracker::skipTo(Cycle upto)
{
    if (cfg_.sweepEvery == 0)
        return;
    if (upto - lastSweep_ >= cfg_.sweepEvery)
        lastSweep_ += cfg_.sweepEvery * ((upto - lastSweep_) /
                                         cfg_.sweepEvery);
}

void
CwgTracker::sweep(Cycle now)
{
    // Tarjan over the *true* wait graph (rejected edges included): a
    // cycle whose wait set never changes inserts no new edges, so only
    // this sweep observes it persisting — and only this sweep can see
    // a benign cycle degenerate into a knot when an exit evaporates
    // without any edge churn (reportCycle below re-classifies every
    // SCC it finds, so a cycle first seen benign is promoted the
    // moment the knot condition starts to hold).
    static const std::vector<Out> kNoOuts;
    auto outsOf = [this](MsgId v) -> const std::vector<Out> & {
        const Waiter *w = find(v);
        return w ? w->out : kNoOuts;
    };

    std::unordered_map<MsgId, int> index, low;
    std::unordered_map<MsgId, bool> onStack;
    std::vector<MsgId> tarjanStack;
    int counter = 0;
    std::vector<std::vector<MsgId>> sccs;

    // Iterative Tarjan (frame: node + next-child cursor).
    struct Frame
    {
        MsgId v;
        std::size_t child;
    };
    // Roots in id order (the store's walk): the root order decides
    // which member an SCC is first entered from — i.e. the reported
    // cycle order.
    net_.messageStore().forEach([&](const Message &m) {
        const MsgId root = m.id;
        if (outsOf(root).empty() || index.count(root))
            return;
        std::vector<Frame> frames{{root, 0}};
        while (!frames.empty()) {
            Frame &f = frames.back();
            const MsgId v = f.v;
            if (f.child == 0) {
                index[v] = low[v] = counter++;
                tarjanStack.push_back(v);
                onStack[v] = true;
            }
            const auto &outs2 = outsOf(v);
            bool descended = false;
            while (f.child < outs2.size()) {
                const MsgId w = outs2[f.child++].to;
                if (!index.count(w)) {
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    low[v] = std::min(low[v], index[w]);
            }
            if (descended)
                continue;
            if (low[v] == index[v]) {
                std::vector<MsgId> scc;
                for (;;) {
                    const MsgId w = tarjanStack.back();
                    tarjanStack.pop_back();
                    onStack[w] = false;
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                if (scc.size() > 1)
                    sccs.push_back(std::move(scc));
            }
            frames.pop_back();
            if (!frames.empty()) {
                Frame &pf = frames.back();
                low[pf.v] = std::min(low[pf.v], low[v]);
            }
        }
    });

    std::unordered_set<std::uint64_t> present;
    for (const std::vector<MsgId> &scc : sccs) {
        // Extract one cycle order inside the SCC: follow in-SCC edges
        // until a node repeats (every SCC node has one, size > 1).
        std::unordered_set<MsgId> inScc(scc.begin(), scc.end());
        std::vector<MsgId> walk{scc.front()};
        std::unordered_map<MsgId, std::size_t> pos{{scc.front(), 0}};
        std::vector<MsgId> cycle;
        for (;;) {
            const MsgId cur = walk.back();
            MsgId nxt = invalidMsg;
            for (const Out &o : outsOf(cur)) {
                if (inScc.count(o.to)) {
                    nxt = o.to;
                    break;
                }
            }
            if (nxt == invalidMsg)
                break;  // defensive: should not happen in an SCC
            auto it = pos.find(nxt);
            if (it != pos.end()) {
                cycle.assign(walk.begin() +
                                 static_cast<std::ptrdiff_t>(it->second),
                             walk.end());
                break;
            }
            pos[nxt] = walk.size();
            walk.push_back(nxt);
        }
        if (cycle.empty())
            continue;

        const std::uint64_t hash = memberHash(cycle);
        present.insert(hash);
        reportCycle(cycle);

        // A benign cycle that outlived the persistence bound is worth
        // a warning — suspicious longevity, but not a deadlock unless
        // the knot check above says so.
        auto seen = seen_.find(hash);
        if (seen != seen_.end() && seen->second.benignSince &&
            now - *seen->second.benignSince >= cfg_.persistBound &&
            !seen->second.violation && !seen->second.warned &&
            !healing_.count(hash)) {
            const std::string diag =
                diagnose(cycle, CycleClass::Persistent);
            lastDiagnosis_ = diag;
            if (warnings_.size() < cfg_.maxViolations) {
                warnings_.push_back(
                    {CycleClass::Persistent, now, hash, cycle, diag});
            }
            seen->second.warned = true;
        }
    }

    // Benign cycles that dissolved stop being tracked (and may be
    // re-reported if they ever re-form).
    std::erase_if(seen_, [&present](const auto &e) {
        return e.second.benignSince && !present.count(e.first);
    });
}

} // namespace verify
} // namespace tpnet
