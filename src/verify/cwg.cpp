#include "verify/cwg.hpp"

#include <algorithm>
#include <sstream>

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
    : net_(net), cfg_(cfg)
{
}

VcKey
CwgTracker::keyOf(LinkId link, int vc) const
{
    return static_cast<VcKey>(link) *
               static_cast<VcKey>(net_.vcCount()) +
           static_cast<VcKey>(vc);
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
    scratch_.push_back(keyOf(net_.linkAt(node, port).id, vc));
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
    for (VcKey key : scratch_) {
        const LinkId link =
            static_cast<LinkId>(key / static_cast<VcKey>(net_.vcCount()));
        const int vc =
            static_cast<int>(key % static_cast<VcKey>(net_.vcCount()));
        const MsgId owner = net_.vc(link, vc).owner;
        if (owner == msg.id)
            continue;
        ++committed;
        if (owner == invalidMsg)
            continue;
        next.push_back({key, owner});
    }
    blocked_[msg.id] = committed;
    commitWaits(msg.id, std::move(next));
}

void
CwgTracker::onGranted(const Message &msg)
{
    if (msg.id == evalMsg_)
        evalMsg_ = invalidMsg;
    blocked_.erase(msg.id);
    clearWaits(msg.id);
}

void
CwgTracker::onRetreat(const Message &msg)
{
    if (msg.id == evalMsg_)
        evalMsg_ = invalidMsg;
    blocked_.erase(msg.id);
    clearWaits(msg.id);
}

void
CwgTracker::onVcReleased(LinkId link, int vc)
{
    const VcKey key = keyOf(link, vc);
    auto it = waiters_.find(key);
    if (it == waiters_.end())
        return;
    const std::vector<MsgId> waiting = std::move(it->second);
    waiters_.erase(it);
    for (MsgId id : waiting) {
        auto wit = waits_.find(id);
        if (wit == waits_.end())
            continue;
        auto &recs = wit->second;
        for (std::size_t i = 0; i < recs.size();) {
            if (recs[i].key == key) {
                removeEdge(id, recs[i].owner);
                recs[i] = recs.back();
                recs.pop_back();
            } else {
                ++i;
            }
        }
        if (recs.empty())
            waits_.erase(wit);
    }
}

void
CwgTracker::onMessageGone(MsgId id)
{
    if (id == evalMsg_)
        evalMsg_ = invalidMsg;
    blocked_.erase(id);
    clearWaits(id);
}

// --- Wait-set maintenance --------------------------------------------------

void
CwgTracker::commitWaits(MsgId id, std::vector<WaitRec> next)
{
    // Diff against the previous wait set so unchanged waits insert no
    // edges (the common case for a message blocked over many cycles).
    auto countOwners = [](const std::vector<WaitRec> &recs) {
        std::unordered_map<MsgId, int> c;
        for (const WaitRec &r : recs)
            ++c[r.owner];
        return c;
    };

    auto &prev = waits_[id];
    const auto before = countOwners(prev);
    const auto after = countOwners(next);

    // Reverse index: drop stale entries, add fresh ones.
    std::unordered_set<VcKey> prevKeys, nextKeys;
    for (const WaitRec &r : prev)
        prevKeys.insert(r.key);
    for (const WaitRec &r : next)
        nextKeys.insert(r.key);
    for (VcKey key : prevKeys) {
        if (nextKeys.count(key))
            continue;
        auto it = waiters_.find(key);
        if (it == waiters_.end())
            continue;
        auto &v = it->second;
        v.erase(std::remove(v.begin(), v.end(), id), v.end());
        if (v.empty())
            waiters_.erase(it);
    }
    for (VcKey key : nextKeys) {
        if (prevKeys.count(key))
            continue;
        waiters_[key].push_back(id);
    }

    prev = std::move(next);
    if (prev.empty())
        waits_.erase(id);

    for (const auto &[owner, n] : before) {
        auto it = after.find(owner);
        const int have = it == after.end() ? 0 : it->second;
        for (int i = have; i < n; ++i)
            removeEdge(id, owner);
    }
    for (const auto &[owner, n] : after) {
        auto it = before.find(owner);
        const int had = it == before.end() ? 0 : it->second;
        for (int i = had; i < n; ++i)
            addEdge(id, owner);
    }
}

void
CwgTracker::clearWaits(MsgId id)
{
    auto it = waits_.find(id);
    if (it == waits_.end())
        return;
    for (const WaitRec &r : it->second) {
        removeEdge(id, r.owner);
        auto wit = waiters_.find(r.key);
        if (wit == waiters_.end())
            continue;
        auto &v = wit->second;
        v.erase(std::remove(v.begin(), v.end(), id), v.end());
        if (v.empty())
            waiters_.erase(wit);
    }
    waits_.erase(it);
}

// --- Incremental cycle detection ------------------------------------------

void
CwgTracker::addEdge(MsgId u, MsgId v)
{
    const int n = ++edgeCount_[EdgeKey{u, v}];
    if (n > 1)
        return;  // multiplicity only; the graph edge already exists
    trueOut_[u].push_back(v);
    std::vector<MsgId> cycle;
    if (closesCycle(u, v, &cycle)) {
        // Keep the DAG acyclic by leaving the edge out (the true graph
        // still holds it; the periodic sweep tracks its persistence)
        // and report the cycle now.
        reportCycle(cycle, false);
    } else {
        dagOut_[u].push_back(v);
    }
}

void
CwgTracker::removeEdge(MsgId u, MsgId v)
{
    auto it = edgeCount_.find(EdgeKey{u, v});
    if (it == edgeCount_.end())
        return;
    if (--it->second > 0)
        return;
    edgeCount_.erase(it);
    // Drop u->v from both adjacencies; a rejected edge is only in the
    // true graph, and erasing an absent entry is a no-op.
    for (auto *adj : {&trueOut_, &dagOut_}) {
        auto out = adj->find(u);
        if (out == adj->end())
            continue;
        auto &outs = out->second;
        outs.erase(std::remove(outs.begin(), outs.end(), v), outs.end());
        if (outs.empty())
            adj->erase(out);
    }
}

bool
CwgTracker::closesCycle(MsgId u, MsgId v,
                        std::vector<MsgId> *cycle_out) const
{
    if (!dagOut_.count(v))
        return false;  // no DAG edge leaves v: the common case

    // LIFO depth-first search from v over the DAG; reaching u closes
    // the cycle u -> v -> ... -> w -> u.
    std::unordered_map<MsgId, MsgId> parent;
    std::unordered_set<MsgId> seen{v};
    std::vector<MsgId> stack{v};
    while (!stack.empty()) {
        const MsgId w = stack.back();
        stack.pop_back();
        auto it = dagOut_.find(w);
        if (it == dagOut_.end())
            continue;
        for (MsgId x : it->second) {
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
        auto it = trueOut_.find(v);
        if (it == trueOut_.end())
            continue;
        for (MsgId w : it->second) {
            if (seen.insert(w).second)
                stack.push_back(w);
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
    auto bit = blocked_.find(id);
    if (bit == blocked_.end())
        return true;  // owns trios but is not blocked: progressing
    if (bit->second == 0)
        return true;  // blocked with an unknown candidate set:
                      // conservatively assume a way out (every such
                      // block site is stall-limit-guarded)
    if (waitCount(id) < bit->second)
        return true;  // a committed candidate has been freed
    if (net_.canBacktrack(*msg))
        return true;
    if (net_.protocol().abortsOnStall(*msg))
        return true;
    return false;
}

CycleClass
CwgTracker::classify(const std::vector<MsgId> &members) const
{
    const int escapeVcs = net_.escapeVcCount();
    const int vcsPerLink = net_.vcCount();

    // Recovery mode frees the escape partition for fully adaptive use:
    // there is no acyclic escape order left to violate, so the
    // EscapeCycle verdict is meaningless and only the knot check
    // decides deadlock.
    if (!recovery_) {
        bool allEscapeCommitted = true;
        for (MsgId id : members) {
            // Theorem 3 demands that the *escape* channel dependency
            // graph stay acyclic. A member is committed to the escape
            // subnetwork only when every wait it holds is on an
            // escape-class trio; a cycle of such members breaks
            // Duato's acyclic escape order outright, no reachability
            // argument needed.
            auto wit = waits_.find(id);
            bool escapeCommitted = wit != waits_.end() &&
                                   !wit->second.empty();
            if (wit != waits_.end()) {
                for (const WaitRec &r : wit->second) {
                    const int vc = static_cast<int>(
                        r.key % static_cast<VcKey>(vcsPerLink));
                    if (vc >= escapeVcs)
                        escapeCommitted = false;
                }
            }
            if (!escapeCommitted) {
                allEscapeCommitted = false;
                break;
            }
        }
        if (allEscapeCommitted)
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
    const int vcsPerLink = net_.vcCount();
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
        auto wit = waits_.find(id);
        if (wit != waits_.end()) {
            for (const WaitRec &r : wit->second) {
                if (r.owner != next)
                    continue;
                const LinkId link = static_cast<LinkId>(
                    r.key / static_cast<VcKey>(vcsPerLink));
                const int vc = static_cast<int>(
                    r.key % static_cast<VcKey>(vcsPerLink));
                const VcState &trio = net_.vc(link, vc);
                os << " waits on link " << link << " vc " << vc;
                if (vc < escapeVcs)
                    os << " (escape class " << vc << ")";
                else
                    os << " (adaptive)";
                os << " [kReg=" << trio.kReg << "] owned by msg "
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
    if (traceOffset_)
        os << "; trace offset " << traceOffset_();
    return os.str();
}

std::string
CwgTracker::describeWaits(MsgId id) const
{
    auto it = waits_.find(id);
    if (it == waits_.end() || it->second.empty())
        return "";
    const int escapeVcs = net_.escapeVcCount();
    const int vcsPerLink = net_.vcCount();
    std::ostringstream os;
    bool first = true;
    for (const WaitRec &r : it->second) {
        if (!first)
            os << ", ";
        first = false;
        const LinkId link =
            static_cast<LinkId>(r.key / static_cast<VcKey>(vcsPerLink));
        const int vc =
            static_cast<int>(r.key % static_cast<VcKey>(vcsPerLink));
        os << "link " << link << " vc " << vc
           << (vc < escapeVcs ? " (escape)" : " (adaptive)")
           << " owned by msg " << r.owner;
    }
    return os.str();
}

std::size_t
CwgTracker::waitCount(MsgId id) const
{
    auto it = waits_.find(id);
    return it == waits_.end() ? 0 : it->second.size();
}

std::size_t
CwgTracker::edgeCount() const
{
    std::size_t n = 0;
    for (const auto &[e, c] : edgeCount_)
        n += static_cast<std::size_t>(c);
    return n;
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
CwgTracker::reportCycle(const std::vector<MsgId> &members, bool from_sweep)
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
            PendingKnot pk;
            pk.cycle.cls = cls;
            pk.cycle.at = net_.now();
            pk.cycle.hash = hash;
            pk.cycle.members = members;
            pk.cycle.diagnosis = diag;
            pk.closure = closureOf(members);
            pendingKnots_.push_back(std::move(pk));
        }
        return;
    }

    if (!reported_.count(hash)) {
        ++cyclesDetected_;
        if (!isViolation(cls))
            ++benignDetected_;
    }

    if (isViolation(cls)) {
        if (!reported_[hash] && violations_.size() < cfg_.maxViolations) {
            CwgCycle c;
            c.cls = cls;
            c.at = net_.now();
            c.hash = hash;
            c.members = members;
            c.diagnosis = diag;
            violations_.push_back(std::move(c));
        }
        reported_[hash] = true;
        return;
    }

    // Benign: remember when we first saw it so the sweep can flag a
    // "transient" that refuses to resolve.
    reported_.emplace(hash, false);
    benignSeen_.emplace(hash, net_.now());
    (void)from_sweep;
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
    if (!reported_[hash] && violations_.size() < cfg_.maxViolations) {
        CwgCycle c = knot.cycle;
        c.at = net_.now();
        c.diagnosis += "; heal budget exhausted (livelock escalation)";
        lastDiagnosis_ = c.diagnosis;
        violations_.push_back(std::move(c));
    }
    reported_[hash] = true;
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
    return waits_.empty() && edgeCount_.empty() && pendingKnots_.empty() &&
        healing_.empty() &&
        (cfg_.sweepEvery == 0 || benignSeen_.empty());
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
    static const std::vector<MsgId> kNoOuts;
    auto outsOf = [this](MsgId v) -> const std::vector<MsgId> & {
        auto it = trueOut_.find(v);
        return it == trueOut_.end() ? kNoOuts : it->second;
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
    // Roots in sorted order: the map's iteration order depends on its
    // bucket history (and differs after a checkpoint restore), and the
    // root order decides which member an SCC is first entered from —
    // i.e. the reported cycle order. Sorting pins it.
    std::vector<MsgId> roots;
    roots.reserve(trueOut_.size());
    for (const auto &[root, outs] : trueOut_)
        roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    for (const MsgId root : roots) {
        if (index.count(root))
            continue;
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
                const MsgId w = outs2[f.child++];
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
    }

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
            for (MsgId w : outsOf(cur)) {
                if (inScc.count(w)) {
                    nxt = w;
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
        reportCycle(cycle, true);

        // A benign cycle that outlived the persistence bound is worth
        // a warning — suspicious longevity, but not a deadlock unless
        // the knot check above says so.
        auto seen = benignSeen_.find(hash);
        if (seen != benignSeen_.end() &&
            now - seen->second >= cfg_.persistBound &&
            !reported_[hash] && !warned_.count(hash) &&
            !healing_.count(hash)) {
            const std::string diag =
                diagnose(cycle, CycleClass::Persistent);
            lastDiagnosis_ = diag;
            if (warnings_.size() < cfg_.maxViolations) {
                CwgCycle c;
                c.cls = CycleClass::Persistent;
                c.at = now;
                c.hash = hash;
                c.members = cycle;
                c.diagnosis = diag;
                warnings_.push_back(std::move(c));
            }
            warned_.insert(hash);
        }
    }

    // Benign cycles that dissolved stop being tracked (and may be
    // re-reported if they ever re-form).
    for (auto it = benignSeen_.begin(); it != benignSeen_.end();) {
        if (!present.count(it->first)) {
            reported_.erase(it->first);
            warned_.erase(it->first);
            it = benignSeen_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace verify
} // namespace tpnet
