/**
 * @file
 * The network: routers, links, messages, and the cycle engine.
 *
 * Network::step() advances one cycle through five phases:
 *   1. RCU phase — each router's RCU services at most one header,
 *      consulting the configured routing protocol (Section 5.0);
 *   2. control phase — one control flit crosses each link's multiplexed
 *      control lane (headers forward, acknowledgment/kill/release flits
 *      along complementary channels, Fig. 2b);
 *   3. data phase — one data flit crosses each link's data lane
 *      (demand-driven round-robin over the VC trios), plus one flit of
 *      ejection and injection bandwidth per node;
 *   4. fault phase — dynamic fault process and recovery walks;
 *   5. housekeeping — retry wakeups, watchdog, message retirement.
 *
 * Flits carry a readyAt cycle so nothing moves more than one hop per
 * cycle. Member functions are implemented across core/network.cpp,
 * flow/flow_control.cpp, fault/fault_model.cpp, and fault/recovery.cpp.
 */

#ifndef TPNET_CORE_NETWORK_HPP
#define TPNET_CORE_NETWORK_HPP

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/message.hpp"
#include "core/message_store.hpp"
#include "metrics/collector.hpp"
#include "verify/cwg.hpp"
#include "router/data_plane.hpp"
#include "router/link.hpp"
#include "router/router.hpp"
#include "routing/protocol.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "topology/registry.hpp"
#include "topology/topology.hpp"

namespace tpnet {

struct SnapshotAccess;

/** What a dynamic fault fails when it strikes (Section 2.4, Fig. 16). */
enum class FaultKind : std::uint8_t {
    NodeKill,         ///< fail a PE + router permanently
    LinkKill,         ///< fail a full-duplex link permanently
    LinkIntermittent, ///< fail a link, restore it after downFor cycles
};

/** One dynamic fault, as Network::strike fires it. */
struct FaultEvent
{
    Cycle at = 0;            ///< cycle the fault strikes
    FaultKind kind = FaultKind::NodeKill;
    /// Pinned victim node (NodeKill) or link source (Link*);
    /// invalidNode = draw a random healthy victim when the event fires.
    NodeId node = invalidNode;
    int port = -1;           ///< pinned output port for link events
    Cycle downFor = 0;       ///< LinkIntermittent: outage duration
};

/**
 * Extra attributes of an offered message (workload library). The
 * defaults are those of offerMessage(src, dst).
 */
struct OfferSpec
{
    int cls = 0;             ///< traffic class index
    int length = 0;          ///< data flits (0 = SimConfig::msgLength)
    bool isReply = false;    ///< closed-loop reply message
    MsgId reqId = invalidMsg;
    Cycle reqCreated = 0;    ///< request creation cycle (replies)
    bool e2eMeasured = false;
};

/**
 * Observer of message retirement — called once per message, after it
 * reaches a terminal state, with the final Message record (the closed-
 * loop injector turns delivered requests into replies through this).
 * The callback runs while the network is retiring messages: it must
 * not offer messages or otherwise mutate the network re-entrantly —
 * record the event and act on the next Injector::step().
 */
class RetireListener
{
  public:
    virtual ~RetireListener() = default;
    virtual void messageRetired(Cycle now, const Message &msg) = 0;
};

/**
 * Work counts of Network::step (host-side instrumentation, like the
 * benchmarks' clocks): not simulation state, so they never enter a
 * digest or Counters. A phase's visits are its ready set's live
 * members under the event engine and the whole scan under the stepped
 * one.
 */
struct StepWork
{
    std::uint64_t rcuVisits = 0;   ///< routers phaseRcu visited
    std::uint64_t ctrlVisits = 0;  ///< wires phaseControl visited
    std::uint64_t dataVisits = 0;  ///< nodes phaseData visited
    std::uint64_t routeCalls = 0;  ///< routing-function evaluations
    std::uint64_t blockedReroutes = 0;  ///< of a header blocked last time
    std::uint64_t moveAttempts = 0;  ///< tryMoveData calls
    std::uint64_t moves = 0;         ///< data flits moved link to link
    std::uint64_t rejectEmpty = 0;   ///< input DIBU empty
    std::uint64_t rejectGated = 0;   ///< unrouted, held, or counter < K
    std::uint64_t rejectNotReady = 0;  ///< front flit crossed this cycle
    std::uint64_t rejectUnmapped = 0;  ///< mapped to no output link
    std::uint64_t rejectFaulty = 0;  ///< output link failed
    std::uint64_t rejectFull = 0;    ///< downstream DIBU full
    std::uint64_t rejectOwner = 0;   ///< downstream trio re-owned
    std::uint64_t injectAttempts = 0;  ///< tryInjectOn calls
    std::uint64_t injections = 0;    ///< flits injected (header or data)
    std::uint64_t messageLookups = 0;  ///< message-table probes
};

/** The simulated interconnection network. */
class Network
{
    friend struct SnapshotAccess;

  public:
    explicit Network(const SimConfig &cfg);

    // --- Simulation control ----------------------------------------------
    /** Advance one cycle. */
    void step();

    Cycle now() const { return now_; }

    // --- Event engine (core/engine.hpp) -------------------------------
    /** Event-driven stepping armed (cfg.eventEngine)? */
    bool eventEngine() const { return cfg_.eventEngine; }

    /**
     * True when stepping the network would provably mutate nothing:
     * every activity set is drained, no Bernoulli fault process is
     * armed (an armed entry of the table draws RNG every cycle), no
     * link restore is due, and the CWG analyzer holds no state a sweep
     * could touch. While idle, the only future state changes are the
     * discrete events reported by nextInternalEvent(), so a driver may
     * skipTo() any cycle at or before that event. Always false with the
     * event engine off.
     */
    bool idle() const;

    /**
     * Earliest future cycle at which the network itself has scheduled
     * work: a retry wakeup, an intermittent-fault link restore, or the
     * deadlock-watchdog expiry. cycleNever when none is pending.
     */
    Cycle nextInternalEvent() const;

    /**
     * Advance the clock directly to @p target without stepping. Only
     * legal while idle() and target <= nextInternalEvent() (and any
     * driver-side deadline): every skipped cycle is then a proven
     * no-op. Rotating service offsets advance exactly as if the cycles
     * had been stepped, so subsequent behavior is bit-identical.
     */
    void skipTo(Cycle target);

    /**
     * Recompute the activity sets, the mapped-flit counts and the
     * progress clock's baseline from the current network state. The
     * constructor calls it; so does a test that edits state by hand. A
     * rebuilt set may omit active-but-drained entities an organic run
     * would still visit once more; such visits mutate nothing, so
     * behavior is unchanged.
     */
    void rebuildActivity();

    /** Toggle the measurement window (tags new messages, counts flits). */
    void setMeasuring(bool on) { measuring_ = on; }
    bool measuring() const { return measuring_; }

    /**
     * Enable the dynamic node-fault process: each cycle one random
     * healthy node fails with probability @p per_cycle_prob, up to
     * @p max_faults total failures over the run.
     */
    void setDynamicFaultProcess(double per_cycle_prob, int max_faults);

    /** Same for full-duplex physical-link failures. */
    void setDynamicLinkFaultProcess(double per_cycle_prob,
                                    int max_faults);

    /**
     * Same process for *intermittent* link failures: a randomly chosen
     * healthy full-duplex link goes down for @p down_cycles (with full
     * kill-flit teardown of the circuits crossing it) and is then
     * restored and re-validated for reuse.
     */
    void setIntermittentLinkFaultProcess(double per_cycle_prob,
                                         int max_faults,
                                         Cycle down_cycles);

    // --- Traffic entry -----------------------------------------------------
    /**
     * Offer a new message for injection at @p src. Returns false (and
     * counts it as not accepted) when the injection queue is full —
     * the congestion-control mechanism of Section 6.0.
     */
    bool offerMessage(NodeId src, NodeId dst);

    /** Offer with workload attributes (class, length, reply linkage). */
    bool offerMessage(NodeId src, NodeId dst, const OfferSpec &spec);

    /** Messages that are not yet terminal. */
    std::size_t activeMessages() const { return messages_.size(); }

    /** True when no message is active anywhere. */
    bool quiescent() const { return messages_.size() == 0; }

    /**
     * The progress clock: the last cycle whose step (or the offers and
     * strikes made just before it) changed Counters::tokenMoves(), i.e.
     * the last cycle some token moved. Both deadlock verdicts read it:
     * the cfg.watchdog panic and chaos::Watchdog's report.
     */
    Cycle lastActivity() const { return lastActivity_; }

    // --- Component access ---------------------------------------------
    const SimConfig &config() const { return cfg_; }
    const Topology &topo() const { return *topo_; }
    Rng &rng() { return rng_; }
    Counters &counters() { return counters_; }
    const Counters &counters() const { return counters_; }

    Link &link(LinkId id) { return links_[static_cast<std::size_t>(id)]; }
    const Link &
    link(LinkId id) const
    {
        return links_[static_cast<std::size_t>(id)];
    }

    Router &
    router(NodeId id)
    {
        return routers_[static_cast<std::size_t>(id)];
    }

    const Router &
    router(NodeId id) const
    {
        return routers_[static_cast<std::size_t>(id)];
    }

    /**
     * Attach an event observer (nullptr detaches). The sink must
     * outlive the network or be detached first.
     */
    void attachTrace(TraceSink *sink) { trace_ = sink; }

    /**
     * Attach the retirement observer (nullptr detaches; at most one).
     * Same lifetime contract as attachTrace.
     */
    void attachRetireListener(RetireListener *l) { retire_ = l; }

    /** VC trio @p vc of link @p link (the data plane's hot record). */
    VcState &vc(LinkId link, int vc) { return plane_.vc(link, vc); }

    const VcState &
    vc(LinkId link, int vc) const
    {
        return plane_.vc(link, vc);
    }

    /** Flit @p i positions behind the head of (link, vc)'s DIBU. */
    const Flit &
    dibuFlit(LinkId link, int vc, std::size_t i) const
    {
        return plane_.at(plane_.index(link, vc), i);
    }

    /**
     * The data plane: VC trios and DIBU slots of every link. Writing
     * through it bypasses the mapped-flit counts (tests corrupt state
     * this way; validateNetwork reports the drift).
     */
    DataPlane &dataPlane() { return plane_; }
    const DataPlane &dataPlane() const { return plane_; }

    /**
     * Flits buffered in the input VCs mapped to output @p port of
     * @p node's crossbar (ejectPort: to its PE).
     */
    std::uint32_t
    mappedFlits(NodeId node, int port) const
    {
        return listFlits_[listSlot(node, port)];
    }

    /** The message table: checkers walk the live messages in id order. */
    const MessageStore &messageStore() const { return messages_; }

    /** Step work counts since construction. */
    const StepWork &stepWork() const { return work_; }

    /** @return the message or nullptr if retired. */
    Message *
    findMessage(MsgId id)
    {
        ++work_.messageLookups;
        return messages_.find(id);
    }

    Message &message(MsgId id);

    const RoutingProtocol &protocol() const { return proto_; }

    /** CWG deadlock analyzer, or nullptr unless cfg.verifyCwg. */
    verify::CwgTracker *cwg() { return cwg_.get(); }

    /**
     * CWG hook for routing protocols: route() observed a
     * legal-but-busy candidate trio on (node, port, vc). Protocols
     * must report *every* trio the message could legally acquire
     * before returning Block — the committed set is the message's
     * full candidate set, which the knot-based deadlock verdict
     * reasons over. No-op when the analyzer is off.
     */
    void
    cwgNoteCandidate(NodeId node, int port, int vc)
    {
        if (cwg_)
            cwg_->noteCandidate(node, port, vc);
    }

    /** Link out of @p node through @p port. */
    Link &
    linkAt(NodeId node, int port)
    {
        return link(topo_->linkId(node, port));
    }

    const Link &
    linkAt(NodeId node, int port) const
    {
        return link(topo_->linkId(node, port));
    }

    // --- Status queries (used by routing protocols) -------------------
    bool
    nodeFaulty(NodeId id) const
    {
        return routers_[static_cast<std::size_t>(id)].faulty;
    }

    /** Link or its far-end node failed. */
    bool channelFaulty(NodeId node, int port) const;

    /** Healthy but marked unsafe (Section 2.4). */
    bool channelUnsafe(NodeId node, int port) const;

    int escapeVcCount() const { return cfg_.escapeVcs; }
    int vcCount() const { return cfg_.vcsPerLink(); }

    /**
     * Lowest VC index the adaptive selection functions may use. In
     * avoidance mode the escape partition [0, escapeVcs) is reserved
     * for the deterministic subfunction (Theorem 3); recovery mode
     * frees it — the whole VC range is adaptive, and the CWG knot
     * detector plus the heal engine stand in for the escape contract.
     */
    int
    adaptiveVcFloor() const
    {
        return cfg_.recoveryMode ? 0 : cfg_.escapeVcs;
    }

    /** First free VC in [lo, hi) on the link out of (node, port), or -1. */
    int
    firstFreeVc(NodeId node, int port, int lo, int hi) const
    {
        return plane_.firstFreeVc(topo_->linkId(node, port), lo, hi);
    }

    /** Escape VC class @p msg must use through @p port (topology-defined:
     *  dateline classes on tori, destination-group classes on dragonfly). */
    int escapeClass(const Message &msg, int port) const;

    /** True when the required escape VC on (node, port) is free. */
    bool escapeVcFree(const Message &msg, int port) const;

    /** The escape subfunction's port toward the destination, or -1. */
    int ecubePort(const Message &msg) const;

    /** Port the probe arrived at its current node through (-1 at src). */
    int arrivalPort(const Message &msg) const;

    /** History frame (tried-port mask) at the probe's current node. */
    std::uint32_t &triedHere(Message &msg);

    /**
     * Whether the probe may retreat one hop: there must be a hop to
     * retreat over, with no data flits resident in it or beyond
     * (Section 4.0: the probe can backtrack up to the node where the
     * first data flit resides).
     */
    bool canBacktrack(const Message &msg) const;

    // --- Two-Phase protocol hooks (Section 4.0) -----------------------
    /** Switch the message to SR flow over unsafe channels. */
    void enterSrMode(Message &msg);

    /** Set the detour bit: freeze data, suppress positive acks. */
    void enterDetour(Message &msg);

    /** Detour complete: clear the bit, release held gates. */
    void completeDetour(Message &msg);

    // --- Fault control (fault/fault_model.cpp) ------------------------
    /**
     * Fire one dynamic fault now — the one way a running network loses
     * a component. An open victim is drawn with @p rng: a node in up
     * to 64 draws over healthyNodes() (only while more than two are
     * healthy; never node 0 under cfg.protectPerimeter), a link in up
     * to 256 draws over healthy links between healthy endpoints. A
     * pinned victim already down, or whose node or port the topology
     * does not have, is rejected. A hit is counted, notes activity,
     * and fails the victim.
     * @return @p ev with its victim resolved, or nothing.
     */
    std::optional<FaultEvent> strike(const FaultEvent &ev, Rng &rng);

    /** Fail a PE+router: all incident links become faulty. */
    void failNode(NodeId id);

    /** Fail the full-duplex physical link (both directions). */
    void failLink(NodeId node, int port);

    /**
     * Fail the full-duplex link for @p down_cycles, then restore it
     * (an intermittent fault: connector glitch, transient driver
     * failure). The failure itself is indistinguishable from a
     * permanent one — circuits are torn down with kill walks — but
     * once the teardown has drained, the link returns to service.
     */
    void failLinkIntermittent(NodeId node, int port, Cycle down_cycles);

    /**
     * Re-validate and return a failed link to service. Refuses (and
     * returns false) while teardown of the interrupted circuits is
     * still sweeping — any trio of either direction still owned — or
     * permanently when an endpoint node has died or the channel is
     * structurally absent. On success both wires are healthy, every
     * trio is free, and unsafe designations are recomputed.
     */
    bool restoreLink(NodeId node, int port);

    /**
     * TEST HOOK — disables the kill sweep that tears down circuits
     * crossing newly failed links. This deliberately breaks the
     * recovery protocol; it exists so the chaos harness can prove its
     * watchdog/oracle actually detect violations. Never set in
     * production code.
     */
    void testHookSkipKillSweep(bool on) { skipKillSweep_ = on; }

    /** Recompute unsafe designations from the current fault set. */
    void recomputeUnsafe();

    /** Place the configured static faults (called by the constructor). */
    void applyStaticFaults();

    std::vector<NodeId> healthyNodes() const;

    // --- Recovery (fault/recovery.cpp) ---------------------------------
    /**
     * Abandon the current setup attempt: tear the circuit down and
     * schedule a source re-try (or drop after maxRetries).
     */
    void abortSetup(Message &msg);

    /** Tear down a circuit a dynamic fault interrupted (Fig. 16). */
    void killMessage(Message &msg);

    /** Injection queue length at @p node (tests). */
    std::size_t injQueueLen(NodeId node) const;

    // --- Deadlock recovery (flow/heal.cpp) ------------------------------
    /**
     * One victimization record, appended per heal so campaigns can
     * audit determinism across --jobs and dump wedges post-mortem.
     */
    struct HealRecord
    {
        Cycle at;
        std::uint64_t knotHash;
        MsgId victim;
        int attempt;  ///< victim's healAttempts after this heal
    };

    const std::vector<HealRecord> &healLog() const { return healLog_; }

    /** Dedicated deterministic RNG stream of the victim layer. */
    Rng &victimRng() { return victimRng_; }

  private:
    // --- Phases (core/network.cpp) -------------------------------------
    void phaseRcu();
    void phaseData();
    void phaseHousekeeping();

    /** One router's RCU service slot (the per-router phaseRcu body). */
    void rcuVisit(Router &rt);

    /** One node's data-phase slot: ejection, moves, injection. */
    void dataVisit(NodeId node);

    /** No data work possible at @p node (conservative: presence of any
     *  buffered data flit or an injectable queue front keeps it busy). */
    bool dataNodeIdle(NodeId node) const;

    /** Output port the injection queue front of @p node may inject on
     *  this cycle (its path[0] port), or -1 when it cannot inject. */
    int injectionPort(NodeId node);

    /** Funnel for RCU queue pushes: enqueue + activity registration. */
    void
    enqueueRcu(NodeId node, const RcuEntry &entry)
    {
        router(node).rcuQueue.push_back(entry);
        rcuActive_.add(static_cast<std::uint32_t>(node));
    }

    /** Wire gained control work. */
    void
    ctrlWake(const Link &wire)
    {
        ctrlActive_.add(static_cast<std::uint32_t>(wire.id));
    }

    /** Node may have data work next visit. */
    void
    dataWake(NodeId node)
    {
        dataActive_.add(static_cast<std::uint32_t>(node));
    }

    /**
     * Stamp @p msg's progress record with this cycle: lastMoved always,
     * lastAdvanced too when @p p is real progress. Called wherever a
     * field the watchdog judges progress by changes, never on a
     * mid-message data hop.
     */
    void
    stamp(Message &msg, Progress p)
    {
        msg.lastMoved = now_;
        if (p == Progress::Advance)
            msg.lastAdvanced = now_;
    }

    /** Header search budget in hops before a setup attempt is
     *  abandoned, as a multiple of the network diameter. */
    static constexpr int searchBudgetDiameters = 8;

    /** Serve one RCU decision for @p msg. @return true if probe moved. */
    bool serveHeader(Message &msg);

    /** Apply a Forward decision: reserve the next trio. */
    void applyForward(Message &msg, const Decision &d);

    /** Apply a Backtrack decision. */
    void applyBacktrack(Message &msg);

    /** Probe arrived at the downstream node of path[hop_idx]. */
    void probeArrived(Message &msg, int hop_idx);

    /** Probe reached its destination: complete the path. */
    void applyEject(Message &msg);

    /**
     * Move one data flit out of input VC @p in at @p node; true if one
     * moved. @p moved receives the flit (valid only on success).
     */
    bool tryMoveData(VcIndex in, NodeId node, Flit &moved);

    /** tryMoveData past its VcState checks: the output link @p out_id,
     *  then the move. */
    bool moveFlit(VcIndex in, NodeId node, LinkId out_id, Flit &moved);

    /** Index of (node, port)'s count in listFlits_; the eject list
     *  follows the ports. */
    std::size_t
    listSlot(NodeId node, int port) const
    {
        const std::size_t lists = static_cast<std::size_t>(topo_->radix()) + 1;
        return static_cast<std::size_t>(node) * lists +
               static_cast<std::size_t>(port == ejectPort ? topo_->radix()
                                                          : port);
    }

    /** Push a flit into VC @p i of @p lk: DIBU, mapped-flit count, wake. */
    void
    pushData(const Link &lk, VcIndex i, const Flit &flit)
    {
        plane_.push(i, flit);
        if (plane_[i].routed)
            ++listFlits_[listSlot(lk.dst, plane_[i].outPort)];
        dataWake(lk.dst);
    }

    /** Pop the front flit of VC @p i, an input VC of @p node. */
    Flit
    popData(NodeId node, VcIndex i)
    {
        if (plane_[i].routed)
            --listFlits_[listSlot(node, plane_[i].outPort)];
        return plane_.pop(i);
    }

    /** Map input VC @p i of @p node onto (port, out_vc) of its crossbar. */
    void mapVc(NodeId node, VcIndex i, int port, int out_vc);

    /** Undo a mapping of input VC @p i of @p node (no-op if unrouted). */
    void unmapVc(NodeId node, VcIndex i);

    /** Try to inject the front message's next flit onto (node, port). */
    bool tryInjectOn(NodeId node, int port);

    /** Deliver a data flit to the PE at its destination. */
    void deliverFlit(Message &msg, const Flit &flit);

    /** Release hop @p idx of @p msg (tail passed or recovery). */
    void releaseHop(Message &msg, int idx, bool purge);

    /** The next message of a node's queue becomes injection-eligible. */
    void activateFront(NodeId node);

    /** Retire terminal messages collected during the cycle. */
    void retireMessages();

    // --- Control lane (flow/flow_control.cpp) -----------------------------
    void phaseControl();

    /** One wire's control-lane slot (the per-wire phaseControl body). */
    void ctrlVisit(Link &wire);

    void processCtrlArrival(Link &wire, Flit flit);

    /** Enqueue a control flit onto the wire out of node via port. */
    void pushCtrl(NodeId node, int port, const Flit &flit);

    /** Continue an upstream walker (acks, kills, releases, done). */
    void relayUpstream(Message &msg, Flit flit);

    /** Apply an upstream walker's effect at hop flit.hopIdx. */
    bool applyUpstream(Message &msg, const Flit &flit);

    /** Walker reached the source-side gate. */
    void upstreamReachedSource(Message &msg, const Flit &flit);

    /** Handle a downstream kill walk arrival. */
    void handleKillDown(Message &msg, Flit flit);

    // --- Fault machinery (fault_model.cpp / recovery.cpp) ------------------
    /** Draw every armed fault process once; strike on a hit. */
    void stepDynamicFaults();

    /** Process due link restorations (intermittent faults). */
    void stepRestores();

    /** Kill every circuit holding a VC of the newly failed links. */
    void killAffectedCircuits(const std::vector<LinkId> &failed);

    /**
     * A control flit queued on a failing wire is about to be destroyed;
     * complete hop-releasing walks (MsgAck, KillUp, KillDown) of the
     * current epoch synchronously so their circuits are not stranded.
     */
    void salvageControlFlit(const Flit &flit);

    /**
     * Tear @p msg's circuit down for @p cause: release the hops on or
     * adjacent to failed components synchronously (the spanning routers
     * detect the failure), then launch kill walks toward the source and
     * the destination. With no broken hop the one walk starts at the
     * frontier. finishTeardown runs when the last walk drains.
     */
    void tearDown(Message &msg, Teardown cause);

    /** Send a KillDown walker across the wire of hop kill.hopIdx. */
    void sendKillDown(Message &msg, Flit kill);

    /** A hop-releasing walker (KillUp, KillDown, MsgAck) cannot cross
     *  its wire: release the rest of its span and complete it. */
    void cutWalkShort(Message &msg, const Flit &flit);

    /** One kill walk drained; the last one finishes the teardown. */
    void finishWalk(Message &msg);

    /** Every walk drained: retry, retransmit, complete or drop, by the
     *  teardown's cause. */
    void finishTeardown(Message &msg);

    /** Reset @p msg for a new attempt from its source, queued again at
     *  once when @p at is now, else waiting for cycle @p at. */
    void requeue(Message &msg, Cycle at);

    /** A fresh header at the source under the protocol's initial flow,
     *  and the source's K register and PCS hold to match. */
    void startAttempt(Message &msg) const;

    void wakeRetries();
    void dropMessage(Message &msg, bool lost);
    void synchronousRelease(Message &msg, int from_hop, int to_hop);

    // --- Heal engine (flow/heal.cpp) -----------------------------------
    /** Drain pending knots from the tracker and heal each one. */
    void stepHeals();

    /** Sacrifice @p msg to dissolve knot @p hash. */
    void healVictim(Message &msg, std::uint64_t hash);

    void checkWatchdog();

    /** Per-class counter slice for @p cls, or nullptr when the run has
     *  no workload classes (legacy counters tell the whole story). */
    ClassStat *classStat(int cls);

    // --- State ---------------------------------------------------------
    SimConfig cfg_;
    std::unique_ptr<const Topology> topo_;
    Rng rng_;
    RoutingProtocol proto_;

    std::vector<Link> links_;
    std::vector<Router> routers_;
    DataPlane plane_;
    /// Per router and crossbar list (output ports, then ejection):
    /// flits resident in the input VCs mapped there, kept by
    /// pushData/popData/mapVc/unmapVc. Zero means that output has
    /// nothing to arbitrate.
    std::vector<std::uint32_t> listFlits_;
    MessageStore messages_;
    std::vector<std::deque<MsgId>> injQ_;
    std::vector<MsgId> retryList_;
    std::vector<MsgId> retired_;

    // Per-phase ready sets of the event engine. Maintained even with
    // cfg.eventEngine off (registration is O(1)); only iteration
    // strategy differs between the engines.
    ActivitySet rcuActive_;   ///< routers with queued RCU entries
    ActivitySet ctrlActive_;  ///< wires with queued control flits
    ActivitySet dataActive_;  ///< nodes with possible data-phase work

    Counters counters_;
    StepWork work_;
    TraceSink *trace_ = nullptr;
    RetireListener *retire_ = nullptr;
    std::unique_ptr<verify::CwgTracker> cwg_;

    // Deadlock recovery state. The victim RNG is a dedicated stream
    // (never the traffic RNG) so arming recovery cannot perturb a run
    // that forms no knots, and campaigns stay jobs-invariant.
    Rng victimRng_;
    std::unordered_map<std::uint64_t, int> knotHealCount_;
    std::vector<HealRecord> healLog_;
    Cycle now_ = 0;
    Cycle lastActivity_ = 0;
    /// Counters::tokenMoves() at the end of the last step (derived:
    /// rebuildActivity() recomputes it, the state hash leaves it out).
    std::uint64_t lastMoves_ = 0;
    MsgId nextMsgId_ = 0;
    bool measuring_ = false;

    /** A Bernoulli fault process: strike with @ref prob each cycle
     *  until @ref budget hits have landed. */
    struct FaultProcess
    {
        FaultKind kind;
        double prob = 0.0;
        int budget = 0;
        Cycle down = 0;  ///< LinkIntermittent: outage duration
    };
    /// Indexed by FaultKind, which is also the per-cycle draw order.
    std::array<FaultProcess, 3> faultProcs_{{{FaultKind::NodeKill},
                                             {FaultKind::LinkKill},
                                             {FaultKind::LinkIntermittent}}};

    /** A failed full-duplex link due to return to service. */
    struct PendingRestore
    {
        NodeId node;
        int port;
        Cycle at;
    };
    std::vector<PendingRestore> pendingRestores_;

    /** Test hook: break recovery to exercise the chaos oracle. */
    bool skipKillSweep_ = false;
    std::size_t rrNode_ = 0;  ///< rotating router service offset
};

} // namespace tpnet

#endif // TPNET_CORE_NETWORK_HPP
