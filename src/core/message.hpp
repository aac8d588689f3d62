/**
 * @file
 * Message lifecycle state.
 *
 * A message is L data flits (the last one the tail) plus a 1-flit routing
 * header (Section 6.0 uses L = 32). The Message object owns the live
 * header state, the reserved path (mirroring the per-VC state the routers
 * hold), the source-side flow control gate, and bookkeeping for recovery
 * and statistics.
 */

#ifndef TPNET_CORE_MESSAGE_HPP
#define TPNET_CORE_MESSAGE_HPP

#include <limits>
#include <utility>
#include <vector>

#include "routing/header.hpp"
#include "sim/types.hpp"

namespace tpnet {

/** Where a message is in its life. */
enum class MsgState : std::uint8_t {
    Queued,    ///< in the injection queue, header not yet routed
    Active,    ///< probe routing and/or data in flight
    WaitRetry, ///< setup torn down; waiting to re-try from the source
    Delivered, ///< tail ejected at destination (awaiting MsgAck if TAck)
    Complete,  ///< terminal success
    Dropped,   ///< terminal failure: undeliverable or lost to a fault
};

/**
 * Why a message's circuit is being torn down early (DESIGN.md Section
 * 6c). One kill-walk mechanism serves every cause; the cause only
 * decides what follows once the walks have drained.
 */
enum class Teardown : std::uint8_t {
    None,   ///< no teardown in progress
    Fault,  ///< a dynamic fault interrupted the circuit
    Abort,  ///< the probe gave up its setup attempt
    Heal,   ///< sacrificed to dissolve a deadlock knot
};

/** Sentinel for "the leading data flit has already been ejected". */
constexpr int leadEjected = std::numeric_limits<int>::max();

/** One end-to-end message (cache-line aligned, so the data plane's
 *  fields below share one line). */
struct alignas(64) Message
{
    // --- Data plane: injection, moves and ejection read these first
    // --- 64 bytes (one cache line) -----------------------------------------
    MsgId id = invalidMsg;

    /** Reserved circuit, source to probe/tail frontier. */
    std::vector<PathHop> path;

    int length = 0;  ///< data flits (tail included)

    /** Data flits injected into the network so far (0..length). */
    int injectedFlits = 0;

    /** Data flits ejected at the destination so far. */
    int arrivedFlits = 0;

    // Source-side flow control gate (the injection channel's CMU).
    int srcCounter = 0;
    int srcK = 0;

    /**
     * Hop index of the FIFO holding the leading data flit (seq 1):
     * -1 while it is still at the source, leadEjected once delivered.
     * Acknowledgments stop propagating upstream at this hop (Section 5.0:
     * "the RCU does not propagate the acknowledgment beyond the first
     * data flit").
     */
    int leadHop = -1;

    MsgState state = MsgState::Queued;

    /** True once path[0] has been reserved (header left the source RCU). */
    bool srcRouted = false;

    /** Why kill walks are tearing this circuit down, if they are. */
    Teardown teardown = Teardown::None;

    bool srcHold = false;

    /** Inline (pure WR) probes: the header flit has entered the network. */
    bool headerInjected = false;

    /** Still occupying a slot of the source injection queue. */
    bool inQueue = true;

    /** Created inside the measurement window (counts toward statistics). */
    bool measured = false;

    // --- Identity and routing state ---------------------------------------
    NodeId src = invalidNode;
    NodeId dst = invalidNode;

    Cycle created = 0;
    Cycle deliveredAt = 0;

    /** Live routing-probe state. */
    HeaderState hdr;

    /**
     * History store of the depth-first backtracking search (Fig. 10):
     * output ports already searched at each node during the current
     * setup attempt, as (node, port mask) pairs in strictly ascending
     * node order (Network::triedHere inserts in place; Theorem 2's
     * misroute bound keeps the list short). Cleared on every re-try.
     */
    std::vector<std::pair<NodeId, std::uint32_t>> visited;

    /** Hops already fully released behind the tail (exclusive index). */
    int releasedHops = 0;

    /** Probe has been ejected at the destination; path is complete. */
    bool headerAtDest = false;

    /** Probe is currently enqueued at some router's RCU. */
    bool inRcu = false;

    /** Outstanding kill walks (up + down). */
    int killWalks = 0;

    /**
     * Incremented on every reset/re-try; RCU entries and control flits
     * from a previous setup attempt carry the old epoch and are ignored.
     */
    int epoch = 0;

    int retries = 0;
    Cycle retryAt = 0;

    /** Dropped because a dynamic fault killed it with no retransmission
     *  support (distinguishes Lost from Undeliverable at retirement). */
    bool lostToFault = false;

    // --- Deadlock recovery (cfg.recoveryMode) ----------------------------
    /** Times this message was sacrificed to heal a knot. */
    int healAttempts = 0;

    /** Cycle of the most recent victimization (0 = never). */
    Cycle lastHealAt = 0;

    /** Knot hash the in-flight heal is resolving. */
    std::uint64_t healKnotHash = 0;

    /** Cycle the in-flight heal started (heal latency = done - this). */
    Cycle healStartedAt = 0;

    // --- Workload library (src/traffic/) ---------------------------------
    /** Traffic class index (0 when the run has no workload classes). */
    int cls = 0;

    /** Closed-loop reply (dst -> src of a delivered request). */
    bool isReply = false;

    /** For replies: the request message this answers. */
    MsgId reqId = invalidMsg;

    /** For replies: creation cycle of the request (end-to-end latency
     *  = reply tail delivery - this). */
    Cycle reqCreated = 0;

    /** For replies: the request was created inside the measurement
     *  window, so the transaction counts toward e2e statistics. */
    bool e2eMeasured = false;

    // --- Per-message statistics ------------------------------------------
    int detoursBuilt = 0;
    int backtracksTaken = 0;
    int misroutesTaken = 0;

    bool tearingDown() const { return teardown != Teardown::None; }

    bool
    terminal() const
    {
        return state == MsgState::Complete || state == MsgState::Dropped;
    }
};

} // namespace tpnet

#endif // TPNET_CORE_MESSAGE_HPP
