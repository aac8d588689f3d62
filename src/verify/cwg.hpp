/**
 * @file
 * Channel-wait-for-graph (CWG) deadlock analyzer — the online check of
 * the paper's Theorem 3 ("TP routing is deadlock-free with no extra
 * virtual channels beyond Duato's protocol").
 *
 * The tracker mirrors every RCU routing evaluation: while a protocol's
 * route() runs, each candidate virtual channel it could legally acquire
 * (adaptive and escape trios alike) is noted; if the decision is Block,
 * those notes commit as wait edges (blocked message -> owner of the
 * busy trio) and the committed candidate count is remembered. Edges
 * retract when the probe is granted a channel, retreats, or its circuit
 * is torn down, and when the waited trio is released.
 *
 * Cycles are caught incrementally against an acyclic subgraph of the
 * message wait-for graph: inserting an edge u->v searches depth-first
 * from v over that subgraph, and reaching u closes a cycle. Such an
 * edge is left out of the subgraph (keeping it acyclic) and the cycle
 * is extracted and classified on the spot. A low-frequency full SCC
 * sweep over the true wait graph finds the cycles that close only
 * through a rejected edge and re-classifies cycles that linger: a
 * cycle can degenerate into a knot without inserting a single new edge
 * (an exit evaporates when its holder blocks), so only the sweep can
 * observe that transition.
 *
 * Classification of a detected cycle:
 *  - every member waits solely on escape-class (dateline) trios: the
 *    escape network's acyclic dependency order is broken —
 *    EscapeCycle, a protocol violation (Theorem 3 / Duato);
 *  - the cycle's reachable closure over the wait graph contains no
 *    message with an exit — every member's *entire* candidate set is
 *    owned inside the closure, and no closure member can progress,
 *    backtrack, or abort: Knot, a true deadlock and a violation;
 *  - otherwise Benign — some closure member still has a way out, which
 *    is exactly the OR-wait transient Theorem 3 argues resolves
 *    itself;
 *  - a Benign cycle persisting beyond a bound: Persistent — a
 *    *warning* (suspicious longevity, e.g. livelock pressure), not a
 *    violation: the knot check, not wall-clock age, decides deadlock.
 *
 * An exit, precisely: a closure member M has an exit when (a) M is not
 * blocked at all (it owns trios and is progressing), (b) some
 * committed candidate of M has been released since M blocked (its live
 * wait count fell below the committed candidate count), (c) M can
 * backtrack, (d) M's protocol aborts the setup on a stall timeout, or
 * (e) M retired. A blocked message that reported no candidates is
 * conservatively treated as having an exit (its candidate set is
 * unknown; all such block sites are stall-limit-guarded).
 */

#ifndef TPNET_VERIFY_CWG_HPP
#define TPNET_VERIFY_CWG_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/message.hpp"
#include "router/data_plane.hpp"
#include "sim/types.hpp"

namespace tpnet {

class Network;
struct SnapshotAccess;

namespace verify {

/** Classification of a wait cycle. */
enum class CycleClass : std::uint8_t {
    Benign,      ///< some closure member still has an exit
    EscapeCycle, ///< crosses an escape (dateline) class: violation
    Knot,        ///< no exit anywhere in the reachable closure: deadlock
    Persistent,  ///< a Benign cycle that outlived the persistence bound
};

const char *cycleClassName(CycleClass c);

/** True for the classes that indicate a protocol violation. */
inline bool
isViolation(CycleClass c)
{
    return c == CycleClass::EscapeCycle || c == CycleClass::Knot;
}

/** One detected wait cycle, classified and diagnosed. */
struct CwgCycle
{
    CycleClass cls = CycleClass::Benign;
    Cycle at = 0;                 ///< simulation cycle of detection
    std::uint64_t hash = 0;       ///< order-independent member hash
    std::vector<MsgId> members;   ///< in cycle order
    /** Full human diagnosis: VCs, owners, K values, phases. */
    std::string diagnosis;
};

/**
 * A confirmed knot queued for healing (recovery mode): the classified
 * cycle plus its full reachable closure, from which the victim layer
 * picks the message to sacrifice.
 */
struct PendingKnot
{
    CwgCycle cycle;
    std::vector<MsgId> closure;  ///< deterministic discovery order
};

/** Tunables of the analyzer. */
struct CwgConfig
{
    /// Cadence of the full SCC re-classification sweep (cycles;
    /// 0 disables).
    Cycle sweepEvery = 64;
    /// A Benign cycle still present after this many cycles is recorded
    /// as a Persistent *warning* (not a violation).
    Cycle persistBound = 4000;
    /// Stop recording after this many violations (the run is doomed).
    std::size_t maxViolations = 64;
};

/**
 * Live channel-wait-for-graph tracker for one Network.
 *
 * Strictly read-only with respect to the simulation: it never touches
 * network state or the RNG, so enabling it cannot perturb results
 * (golden-trace digests are identical with the tracker on or off).
 */
class CwgTracker
{
    friend struct ::tpnet::SnapshotAccess;

  public:
    explicit CwgTracker(Network &net, CwgConfig cfg = {});

    // --- Hook protocol (all called via null-gated Network hooks) -------
    /** An RCU evaluation of @p msg starts; reset the scratch notes. */
    void beginEvaluation(const Message &msg);

    /**
     * route() observed a legal-but-busy candidate trio on
     * (node, port, vc). The contract with the routing functions is
     * that by the time a Block decision is returned, *every* trio the
     * message could legally acquire has been noted — the committed set
     * is the message's full candidate set, which is what the knot
     * check reasons over.
     */
    void noteCandidate(NodeId node, int port, int vc);

    /** The evaluation ended in Block: commit the notes as wait edges. */
    void onBlocked(const Message &msg);

    /** The probe advanced (Forward/Eject): its wait edges retract. */
    void onGranted(const Message &msg) { onMessageGone(msg.id); }

    /** The probe retreats (Backtrack): its wait edges retract. */
    void onRetreat(const Message &msg) { onMessageGone(msg.id); }

    /** A trio was released: edges waiting on it retract. */
    void onVcReleased(LinkId link, int vc);

    /** A message was killed/reset/dropped/retired: forget its edges. */
    void onMessageGone(MsgId id);

    /** End-of-cycle housekeeping: periodic SCC/persistence sweep. */
    void onCycleEnd(Cycle now);

    // --- Event-engine cycle-skip support -------------------------------
    /**
     * True when skipping idle cycles cannot change anything the tracker
     * would observe or report: no wait edges, no pending knots or heals
     * in flight, and either sweeping is disabled or no benign cycle is
     * aging toward the persistence bound. (An idle network cannot grow
     * the graph, so sweeps of a skipped span are provably no-ops.)
     */
    bool idleForSkip() const;

    /**
     * Advance the sweep clock across a skipped idle span ending just
     * before @p upto, exactly as the per-cycle onCycleEnd(now) calls
     * would have: lastSweep_ lands on the last sweep boundary <= upto.
     * Only legal while idleForSkip() holds (the skipped sweeps are
     * no-ops by construction).
     */
    void skipTo(Cycle upto);

    // --- Results -------------------------------------------------------
    /** Cycles classified as protocol violations, in detection order. */
    const std::vector<CwgCycle> &violations() const { return violations_; }

    /**
     * Persistent-cycle warnings (benign cycles that outlived the
     * persistence bound without ever forming a knot), in detection
     * order. Advisory only — not violations.
     */
    const std::vector<CwgCycle> &warnings() const { return warnings_; }

    /** Every cycle ever detected (violations and benign alike). */
    std::uint64_t cyclesDetected() const { return cyclesDetected_; }
    std::uint64_t benignCycles() const { return benignDetected_; }

    /**
     * Diagnosis of the most recently observed cycle (violating or
     * benign), or "" — the chaos watchdog attaches this to its stall
     * reports.
     */
    const std::string &lastCycleDiagnosis() const { return lastDiagnosis_; }

    /**
     * One-line description of what @p id is currently waiting on
     * ("link 12 vc 3 (adaptive) owned by msg 7, ..."), or "" when it
     * holds no wait edges.
     */
    std::string describeWaits(MsgId id) const;

    /** Number of live wait records for @p id (tests). */
    std::size_t waitCount(MsgId id) const;

    /** Total wait edges in the graph (tests). */
    std::size_t edgeCount() const;

    // --- Recovery mode (cfg.recoveryMode) ------------------------------
    /**
     * Arm detect-and-heal: a confirmed knot is queued as a PendingKnot
     * for the heal engine instead of being recorded as a violation,
     * and the EscapeCycle verdict is disabled (recovery mode frees the
     * escape partition for adaptive use, so no escape contract exists
     * to violate). Knots only become violations again via escalate().
     */
    void armRecovery() { recovery_ = true; }

    /** Drain the knots detected since the last call (heal engine). */
    std::vector<PendingKnot> takePendingKnots();

    /**
     * The heal of knot @p hash completed (victim aborted and its trios
     * released) or was abandoned: if the same member set deadlocks
     * again, it is re-detected and re-queued as a fresh PendingKnot.
     */
    void knotHealed(std::uint64_t hash);

    /**
     * Livelock guard tripped: the same knot re-formed past the heal
     * budget. Records the knot as a real violation (once per hash) so
     * the watchdog/strict-mode machinery takes over.
     */
    void escalate(const PendingKnot &knot);

  private:
    /** One wait: a busy candidate trio and the message owning it. */
    struct WaitRec
    {
        VcIndex key;
        MsgId owner;
    };

    /** Edge u->to, listed once however many waits of u name `to`. */
    struct Out
    {
        MsgId to;
        bool inDag;  ///< false once it closed a cycle at insertion
    };

    /**
     * One blocked message. Edge u->v exists exactly when some wait
     * names owner v; `out` keeps insertion order, which decides the
     * cycles the DFS and the sweep extract. `committed` is the count of
     * distinct non-self trios noted at the Block (fewer waits than that
     * means a candidate was freed); 0 means "not blocked, or candidate
     * set unknown" — an exit either way.
     */
    struct Waiter
    {
        MsgId id = invalidMsg;
        std::size_t committed = 0;
        std::vector<WaitRec> waits;
        std::vector<Out> out;

        bool empty() const { return committed == 0 && waits.empty(); }
    };

    /** One cycle hash; an entry means the cycle has been counted. */
    struct CycleSeen
    {
        bool violation = false;
        std::optional<Cycle> benignSince;  ///< until the sweep sees it go
        bool warned = false;               ///< Persistent warning given
    };

    /** @p id's record, or nullptr when it has none. */
    const Waiter *find(MsgId id) const;
    Waiter *find(MsgId id);

    /** @p id's record, created empty when missing; @p id must be live. */
    Waiter &recordOf(MsgId id);

    /** Replace @p w's wait set with @p next (diff-based edge update). */
    void commitWaits(Waiter &w, std::vector<WaitRec> next);

    /** Remove every wait record (and edge) of @p w. */
    void clearWaits(Waiter &w);

    /** Drop @p id from the waiter list of trio @p key. */
    void unlist(VcIndex key, MsgId id);

    void addEdge(Waiter &u, MsgId v);
    void removeEdge(Waiter &u, MsgId v);

    /**
     * True when the DAG already holds a path v -> ... -> u, so the
     * edge u->v would close a cycle; the cycle (in wait order,
     * starting at u) is written to @p cycle_out.
     */
    bool closesCycle(MsgId u, MsgId v,
                     std::vector<MsgId> *cycle_out) const;

    /** Classify, diagnose, and record one detected cycle. */
    void reportCycle(const std::vector<MsgId> &members);

    CycleClass classify(const std::vector<MsgId> &members) const;

    /**
     * Reachable closure of @p members over the true wait graph
     * (members included), in deterministic discovery order.
     */
    std::vector<MsgId> closureOf(const std::vector<MsgId> &members) const;

    /** True when closure member @p id can still make progress. */
    bool hasExit(MsgId id) const;

    std::string diagnose(const std::vector<MsgId> &members,
                         CycleClass cls) const;

    /** Full-graph SCC sweep: re-classification + persistence. */
    void sweep(Cycle now);

    static std::uint64_t memberHash(const std::vector<MsgId> &members);

    Network &net_;
    CwgConfig cfg_;

    // Scratch of the evaluation currently in flight.
    MsgId evalMsg_ = invalidMsg;
    std::vector<VcIndex> scratch_;

    // One record per blocked message, on its message-store slot; one
    // whose id is not the slot's live message reads as empty. Read by
    // id only, never in slot order.
    std::vector<Waiter> records_;
    // Per VcIndex: the messages waiting on that trio, unordered.
    std::vector<std::vector<MsgId>> waiters_;
    std::size_t waitTotal_ = 0;  ///< all wait records (edgeCount())

    std::unordered_map<std::uint64_t, CycleSeen> seen_;

    // Recovery mode: knots currently being healed (suppresses
    // re-detection churn while the abort walk drains) and the queue
    // the heal engine consumes.
    bool recovery_ = false;
    std::unordered_set<std::uint64_t> healing_;
    std::vector<PendingKnot> pendingKnots_;

    std::vector<CwgCycle> violations_;
    std::vector<CwgCycle> warnings_;
    std::string lastDiagnosis_;
    std::uint64_t cyclesDetected_ = 0;
    std::uint64_t benignDetected_ = 0;
    Cycle lastSweep_ = 0;
};

} // namespace verify
} // namespace tpnet

#endif // TPNET_VERIFY_CWG_HPP
