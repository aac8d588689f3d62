/**
 * @file
 * MetricsRegistry — periodic per-router/per-VC sampling of a live
 * Network into VcMetrics windows, plus the one-instant structural
 * snapshot (NetworkStats) that `tpnet_cli --stats` prints. Both read
 * the network through the same walk over its links and VCs.
 *
 * The registry is a passive observer: it reads link/router state and
 * crossing counters but never touches the RNG or any simulation state,
 * so attaching it cannot perturb simulated latency or throughput (the
 * perf gate in scripts/check_bench.py relies on that). Sampling every
 * SimConfig::metricsPeriod cycles keeps the cost amortized to a few
 * loads per link per period.
 */

#ifndef TPNET_OBS_METRICS_REGISTRY_HPP
#define TPNET_OBS_METRICS_REGISTRY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/collector.hpp"
#include "sim/types.hpp"

namespace tpnet {
class Network;
} // namespace tpnet

namespace tpnet::obs {

/**
 * Structural statistics of a network at one instant: *where* bandwidth
 * goes (e.g. the Section 2.3 claim that control traffic is small).
 */
struct NetworkStats
{
    // Cumulative traffic
    std::uint64_t dataCrossings = 0;   ///< data-lane link traversals
    std::uint64_t ctrlCrossings = 0;   ///< control-lane link traversals
    double ctrlShare = 0.0;            ///< ctrl / (ctrl + data)

    // Link utilization (data crossings per link, over healthy links)
    double meanLinkCrossings = 0.0;
    std::uint64_t maxLinkCrossings = 0;
    double linkLoadImbalance = 0.0;    ///< max / mean (1.0 = perfect)

    // Instantaneous occupancy (healthy links)
    int busyVcs = 0;                   ///< trios currently reserved
    int totalVcs = 0;
    int bufferedFlits = 0;             ///< flits resident in DIBUs
    double vcOccupancy = 0.0;          ///< busy / total

    // Control plane
    std::size_t maxCtrlQueueDepth = 0; ///< deepest COBU ever
    std::size_t maxRcuQueueDepth = 0;  ///< deepest RCU arbitration queue
    std::uint64_t headersRouted = 0;

    // Fault state
    int faultyNodes = 0;
    int faultyLinks = 0;               ///< unidirectional wires
    int unsafeLinks = 0;

    /** Multi-line human-readable report. */
    std::string report() const;
};

/** Samples a Network's channel structures into VcMetrics windows. */
class MetricsRegistry
{
  public:
    /** @param period cycles between samples (<= 0 disables sampling). */
    MetricsRegistry(const Network &net, int period);

    /**
     * Call once per cycle; takes a sample when the period elapses.
     * Utilization samples are crossing-count deltas since the previous
     * sample divided by the period.
     */
    void tick(const Network &net);

    /** Take one sample now (also used by tick). */
    void sample(const Network &net);

    /**
     * Replay @p skipped ticks over a frozen network in one call
     * (event-engine cycle skipping). Samples whose period elapsed
     * inside the span are taken against the unchanged network state,
     * so the resulting windows are bit-identical to per-cycle ticking.
     */
    void skipIdle(const Network &net, Cycle skipped);

    /** Structural snapshot of @p net as it stands now. */
    static NetworkStats snapshot(const Network &net);

    const VcMetrics &summary() const { return metrics_; }

  private:
    int period_;
    Cycle sinceSample_ = 0;
    VcMetrics metrics_;
    std::vector<std::uint64_t> lastData_;  ///< dataCrossings per link
    std::vector<std::uint64_t> lastCtrl_;  ///< ctrlCrossings per link
};

} // namespace tpnet::obs

#endif // TPNET_OBS_METRICS_REGISTRY_HPP
