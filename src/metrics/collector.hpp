/**
 * @file
 * Simulation counters and derived run-level metrics.
 *
 * Counters accumulate raw event counts over a run; measurement-window
 * statistics (latency of messages created in the window, data flits
 * delivered during the window) implement the paper's reporting units:
 * average message latency in clock cycles vs. network throughput in
 * flits/cycle/node (Section 6.0).
 */

#ifndef TPNET_METRICS_COLLECTOR_HPP
#define TPNET_METRICS_COLLECTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * Per-traffic-class slice of the lifecycle and window counters, kept
 * only when SimConfig::trafficClasses is non-empty; replies are
 * accounted to their request's class.
 */
struct ClassStat
{
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;          ///< dropped + lost
    std::uint64_t measuredGenerated = 0;
    std::uint64_t measuredDelivered = 0;
    std::uint64_t windowDataFlits = 0;  ///< delivered during the window
    RunningStat latency;                ///< measured messages only

    /** The one field list, as Counters::forEachField. */
    template <class F, class... S>
    static void
    forEachField(F &&f, S &...s)
    {
        f(s.generated...); f(s.delivered...); f(s.dropped...);
        f(s.measuredGenerated...); f(s.measuredDelivered...);
        f(s.windowDataFlits...); f(s.latency...);
    }

    /** Fold another run's slice into this one (exact). */
    void merge(const ClassStat &other);
};

/** Raw event counters for one simulation run. */
struct Counters
{
    // Message lifecycle
    std::uint64_t generated = 0;     ///< creation attempts accepted
    std::uint64_t notAccepted = 0;   ///< rejected: injection queue full
    std::uint64_t delivered = 0;     ///< tails ejected at destinations
    std::uint64_t dropped = 0;       ///< undeliverable after retries
    std::uint64_t lost = 0;          ///< killed by a dynamic fault, no TAck
    std::uint64_t retransmits = 0;   ///< re-queued after a kill (TAck mode)
    std::uint64_t retriesScheduled = 0;

    // Probe activity
    std::uint64_t headerMoves = 0;
    std::uint64_t backtracks = 0;
    std::uint64_t misroutes = 0;
    std::uint64_t detoursBuilt = 0;
    std::uint64_t setupAborts = 0;

    // Flit traffic
    std::uint64_t dataCrossings = 0;  ///< data-lane link traversals
    std::uint64_t ctrlCrossings = 0;  ///< control-lane link traversals
    std::uint64_t posAcks = 0;
    std::uint64_t negAcks = 0;
    /// One per hop a kill walk releases. Hops released synchronously
    /// at a break, or by a walk cut short at a dead wire, are not
    /// counted.
    std::uint64_t killFlits = 0;
    std::uint64_t msgAcks = 0;
    std::uint64_t dataFlitsDelivered = 0;

    // Faults
    std::uint64_t dynamicFaults = 0;
    std::uint64_t intermittentFaults = 0;  ///< subset of dynamicFaults
    std::uint64_t linksRestored = 0;       ///< intermittent links back up
    std::uint64_t messagesKilled = 0;
    /// Header flits caught mid-wire by a link failure and handed to
    /// recovery (a backtracking probe owns no trio on its wire, so the
    /// ownership kill sweep cannot see it).
    std::uint64_t headersSalvaged = 0;

    // Deadlock recovery (cfg.recoveryMode)
    std::uint64_t knotsDetected = 0;    ///< confirmed knots (heal episodes)
    std::uint64_t victimsAborted = 0;   ///< circuits sacrificed to heals
    std::uint64_t healRetransmits = 0;  ///< victim retransmissions scheduled
    std::uint64_t healEscalations = 0;  ///< heal budget exhausted: verdict
    RunningStat healLatency;            ///< knot confirm -> circuit torn down
    Histogram healLatencyHist{4.0, 64};

    // Workload library (src/traffic/)
    /// Uniform pick() exhausted rejection sampling and drew from the
    /// healthy-node set directly (visible load-thinning pressure).
    std::uint64_t uniformFallbacks = 0;
    std::uint64_t repliesGenerated = 0;  ///< closed-loop replies injected
    std::uint64_t repliesDelivered = 0;  ///< closed-loop replies retired OK
    /// Replies dropped before injection because an endpoint died or the
    /// reply itself became undeliverable (budget slot still freed).
    std::uint64_t repliesAbandoned = 0;
    /// Outstanding closed-loop transactions (request offered, reply not
    /// yet retired).
    std::uint64_t closedLoopPending = 0;
    /// Subset of closedLoopPending whose request was measured; the
    /// simulator drains until this reaches zero so every measured
    /// transaction contributes its end-to-end latency.
    std::uint64_t e2ePending = 0;

    // Measurement window
    std::uint64_t measuredGenerated = 0;
    std::uint64_t measuredDelivered = 0;
    std::uint64_t measuredDropped = 0;
    std::uint64_t windowDataFlits = 0;  ///< delivered during the window
    RunningStat latency;                ///< measured messages only
    Histogram latencyHist{8.0, 256};
    /// Closed-loop end-to-end (request creation -> reply delivery)
    /// latency of transactions whose request was measured.
    RunningStat e2eLatency;

    /// Per-class slices; sized by the injector (empty when no workload
    /// classes are configured and legacy counters tell the whole story).
    std::vector<ClassStat> classes;

    /**
     * The one field list: f(s.field...) for every field, in declaration
     * order (the checkpoint's byte order). merge and the checkpoint
     * serializer both walk it.
     */
    template <class F, class... S>
    static void
    forEachField(F &&f, S &...s)
    {
        f(s.generated...); f(s.notAccepted...); f(s.delivered...);
        f(s.dropped...); f(s.lost...); f(s.retransmits...);
        f(s.retriesScheduled...); f(s.headerMoves...); f(s.backtracks...);
        f(s.misroutes...); f(s.detoursBuilt...); f(s.setupAborts...);
        f(s.dataCrossings...); f(s.ctrlCrossings...); f(s.posAcks...);
        f(s.negAcks...); f(s.killFlits...); f(s.msgAcks...);
        f(s.dataFlitsDelivered...); f(s.dynamicFaults...);
        f(s.intermittentFaults...); f(s.linksRestored...);
        f(s.messagesKilled...); f(s.headersSalvaged...); f(s.knotsDetected...);
        f(s.victimsAborted...); f(s.healRetransmits...);
        f(s.healEscalations...); f(s.healLatency...); f(s.healLatencyHist...);
        f(s.uniformFallbacks...); f(s.repliesGenerated...);
        f(s.repliesDelivered...); f(s.repliesAbandoned...);
        f(s.closedLoopPending...); f(s.e2ePending...);
        f(s.measuredGenerated...); f(s.measuredDelivered...);
        f(s.measuredDropped...); f(s.windowDataFlits...); f(s.latency...);
        f(s.latencyHist...); f(s.e2eLatency...); f(s.classes...);
    }

    /**
     * Fold another run's counters into these (exact): every count is
     * summed, every RunningStat, Histogram and ClassStat merged.
     */
    void merge(const Counters &other);
};

/**
 * Per-VC / per-link observability summary of one run, sampled from the
 * network by obs::MetricsRegistry every SimConfig::metricsPeriod cycles
 * during the measurement window (Section 2.3's channel structures seen
 * as time series). All fields merge exactly (RunningStat/Histogram
 * merges), so replications fold in any grouping.
 */
struct VcMetrics
{
    /** Data-buffer (DIBU) fill fraction per link per sample. */
    RunningStat occupancy;

    /** Busy VC trios per link per sample (multiplexing degree). */
    RunningStat muxDegree;

    /** Data-lane crossings per link per cycle between samples. */
    RunningStat dataUtil;

    /** Control-lane crossings per link per cycle between samples. */
    RunningStat ctrlUtil;

    /** RCU queue depth per router per sample. */
    RunningStat rcuDepth;

    /** Occupancy distribution (bins of 1/16 fill fraction). */
    Histogram occupancyHist{0.0625, 17};

    /** Per-VC-index occupancy (index 0..vcsPerLink-1, escape first). */
    std::vector<RunningStat> perVc;

    /** Samples taken (0 when the registry was disabled). */
    std::uint64_t samples = 0;

    /** Fold another run's metrics into this one (exact). */
    void merge(const VcMetrics &other);
};

/** Derived, reportable result of one run. */
struct RunResult
{
    double offeredLoad = 0.0;   ///< configured, flits/node/cycle
    double throughput = 0.0;    ///< delivered data flits/node/cycle
    double avgLatency = 0.0;    ///< cycles, measured messages
    double p95Latency = 0.0;
    double deliveredFraction = 1.0;  ///< of measured generated messages
    std::uint64_t undeliverable = 0; ///< dropped + lost over the whole run
    /// Traffic was armed but the run offered zero messages — the
    /// pattern degenerated (e.g. every source self-maps). Drivers must
    /// fail loudly or mark the point instead of reporting success.
    bool degenerate = false;
    Counters counters;
    VcMetrics vc;  ///< per-VC/per-link samples (empty unless registered)

    /** Tab-separated summary row. */
    std::string row() const;

    /** Column header matching row(). */
    static std::string header();
};

/** Compute derived metrics from counters and the window geometry. */
RunResult deriveResult(const Counters &c, double offered_load, int nodes,
                       Cycle window);

} // namespace tpnet

#endif // TPNET_METRICS_COLLECTOR_HPP
