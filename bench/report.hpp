/**
 * @file
 * Shared structured-result emitter for the figure benches.
 *
 * Every bench can write its series to a JSON file (`--json out.json`)
 * alongside the human-readable TSV it prints, making runs diffable and
 * machine-checkable: per-point latency/throughput plus wall-clock and
 * point count. `scripts/check_bench.py` compares two such files and is
 * the CI perf-regression gate (baseline: BENCH_baseline.json).
 *
 * Schema (one object per file):
 *   {
 *     "benchmark":    "fig12_faultfree",
 *     "fast":         true,            // TPNET_BENCH_FAST smoke mode
 *     "jobs":         4,               // resolved worker count
 *     "max_reps":     1,
 *     "wall_seconds": 1.234,           // whole-bench wall clock
 *     "point_count":  12,
 *     "series": [
 *       { "label": "TP", "x_name": "offered",
 *         "points": [ { "x": 0.05, "throughput": ..., "latency": ...,
 *                       "p95": ..., "delivered_frac": ...,
 *                       "undeliverable": ..., "replications": ...,
 *                       "lat_ci95": ..., "vc": {...} }, ... ] }, ... ]
 *   }
 *
 * Each point's "vc" object carries the per-VC observability samples of
 * obs::MetricsRegistry (folded over replications): mean link occupancy
 * and its 95th percentile, VC multiplexing degree, data-/control-lane
 * utilization, per-VC-index occupancy ("per_vc_occupancy", escape
 * classes first), and the probe backtrack/misroute rates per routed
 * header. It is omitted when sampling was disabled (metricsPeriod <= 0
 * or zero samples). check_bench.py ignores keys absent from its
 * baseline, so adding fields here never trips the perf gate.
 *
 * Workload-library keys (same ignored-when-absent contract):
 * "rejected" (injection-queue rejections), "uniform_fallbacks"
 * (uniform pick() exhaustions resolved against the healthy set),
 * "degenerate" (true when traffic was armed but zero messages were
 * offered), "classes" (per-traffic-class stats array), and
 * "closed_loop" (request-reply totals and end-to-end latency).
 */

#ifndef TPNET_BENCH_REPORT_HPP
#define TPNET_BENCH_REPORT_HPP

#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/report.hpp"
#include "core/experiment.hpp"

namespace tpnet::bench {

/** A series together with the x-axis it was swept over. */
struct LabelledSeries
{
    Series series;
    std::string xName;
};

using chaos::jsonEscape;

/**
 * Format one numeric field. JSON has no inf/nan literal, and a
 * 1-replication point has an infinite CI half-width, so non-finite
 * values are emitted as null.
 */
inline std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** The per-point "vc" object, or "" when no samples were taken. */
inline std::string
jsonVcMetrics(const RunResult &r)
{
    const VcMetrics &vc = r.vc;
    if (vc.samples == 0)
        return "";
    const auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    std::ostringstream os;
    os.precision(17);
    os << "{ \"samples\": " << vc.samples
       << ", \"occupancy\": " << jsonNum(vc.occupancy.mean())
       << ", \"occupancy_p95\": "
       << jsonNum(vc.occupancyHist.percentile(0.95))
       << ", \"mux_degree\": " << jsonNum(vc.muxDegree.mean())
       << ", \"data_util\": " << jsonNum(vc.dataUtil.mean())
       << ", \"ctrl_util\": " << jsonNum(vc.ctrlUtil.mean())
       << ", \"rcu_depth\": " << jsonNum(vc.rcuDepth.mean())
       << ", \"backtrack_rate\": "
       << jsonNum(rate(r.counters.backtracks, r.counters.headerMoves))
       << ", \"misroute_rate\": "
       << jsonNum(rate(r.counters.misroutes, r.counters.headerMoves))
       << ", \"per_vc_occupancy\": [";
    for (std::size_t v = 0; v < vc.perVc.size(); ++v)
        os << (v ? ", " : "") << jsonNum(vc.perVc[v].mean());
    os << "] }";
    return os.str();
}

/**
 * The per-point "recovery" object (knot-triggered deadlock recovery
 * stats), or "" when the run was not in recovery mode / healed
 * nothing. Like "vc", absent keys are ignored by check_bench.py.
 */
inline std::string
jsonRecovery(const RunResult &r)
{
    const Counters &c = r.counters;
    if (c.knotsDetected == 0 && c.victimsAborted == 0 &&
        c.healRetransmits == 0 && c.healEscalations == 0)
        return "";
    std::ostringstream os;
    os.precision(17);
    os << "{ \"knots\": " << c.knotsDetected
       << ", \"victims\": " << c.victimsAborted
       << ", \"heal_retransmits\": " << c.healRetransmits
       << ", \"heal_escalations\": " << c.healEscalations
       << ", \"heal_latency_mean\": " << jsonNum(c.healLatency.mean())
       << ", \"heal_latency_p95\": "
       << jsonNum(c.healLatencyHist.percentile(0.95)) << " }";
    return os.str();
}

/**
 * The per-point "classes" array (workload library per-class stats), or
 * "" when the run had no traffic classes. Absent keys are ignored by
 * check_bench.py, so these never trip the perf gate.
 */
inline std::string
jsonClasses(const RunResult &r)
{
    if (r.counters.classes.empty())
        return "";
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < r.counters.classes.size(); ++i) {
        const ClassStat &cs = r.counters.classes[i];
        os << (i ? ", " : "")
           << "{ \"generated\": " << cs.generated
           << ", \"delivered\": " << cs.delivered
           << ", \"dropped\": " << cs.dropped
           << ", \"measured_generated\": " << cs.measuredGenerated
           << ", \"measured_delivered\": " << cs.measuredDelivered
           << ", \"window_data_flits\": " << cs.windowDataFlits
           << ", \"latency\": " << jsonNum(cs.latency.mean()) << " }";
    }
    os << "]";
    return os.str();
}

/**
 * The per-point "closed_loop" object (request-reply stats), or "" when
 * the run issued no replies.
 */
inline std::string
jsonClosedLoop(const RunResult &r)
{
    const Counters &c = r.counters;
    if (c.repliesGenerated == 0 && c.repliesAbandoned == 0)
        return "";
    std::ostringstream os;
    os.precision(17);
    os << "{ \"replies_generated\": " << c.repliesGenerated
       << ", \"replies_delivered\": " << c.repliesDelivered
       << ", \"replies_abandoned\": " << c.repliesAbandoned
       << ", \"e2e_latency\": " << jsonNum(c.e2eLatency.mean())
       << ", \"e2e_count\": " << c.e2eLatency.count() << " }";
    return os.str();
}

/** Write the bench-result JSON described above. @return false on I/O error. */
inline bool
writeBenchJson(const std::string &path, const std::string &benchmark,
               const std::vector<LabelledSeries> &all, double wall_seconds,
               std::size_t jobs, std::size_t max_reps, bool fast)
{
    std::ofstream os(path);
    if (!os)
        return false;

    std::size_t npoints = 0;
    for (const LabelledSeries &ls : all)
        npoints += ls.series.points.size();

    os.precision(17);
    os << "{\n"
       << "  \"benchmark\": \"" << jsonEscape(benchmark) << "\",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"max_reps\": " << max_reps << ",\n"
       << "  \"wall_seconds\": " << wall_seconds << ",\n"
       << "  \"point_count\": " << npoints << ",\n"
       << "  \"series\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const LabelledSeries &ls = all[i];
        os << (i ? ",\n" : "\n")
           << "    { \"label\": \"" << jsonEscape(ls.series.label)
           << "\", \"x_name\": \"" << jsonEscape(ls.xName)
           << "\", \"points\": [";
        for (std::size_t p = 0; p < ls.series.points.size(); ++p) {
            const SeriesPoint &pt = ls.series.points[p];
            const RunResult &r = pt.result.mean;
            os << (p ? ",\n" : "\n")
               << "      { \"x\": " << jsonNum(pt.x)
               << ", \"throughput\": " << jsonNum(r.throughput)
               << ", \"latency\": " << jsonNum(r.avgLatency)
               << ", \"p95\": " << jsonNum(r.p95Latency)
               << ", \"delivered_frac\": " << jsonNum(r.deliveredFraction)
               << ", \"undeliverable\": " << r.undeliverable
               << ", \"replications\": " << pt.result.replications
               << ", \"lat_ci95\": " << jsonNum(pt.result.latencyHw95)
               << ", \"rejected\": " << r.counters.notAccepted
               << ", \"uniform_fallbacks\": "
               << r.counters.uniformFallbacks;
            if (r.degenerate)
                os << ", \"degenerate\": true";
            const std::string vc = jsonVcMetrics(r);
            if (!vc.empty())
                os << ", \"vc\": " << vc;
            const std::string rec = jsonRecovery(r);
            if (!rec.empty())
                os << ", \"recovery\": " << rec;
            const std::string cls = jsonClasses(r);
            if (!cls.empty())
                os << ", \"classes\": " << cls;
            const std::string loop = jsonClosedLoop(r);
            if (!loop.empty())
                os << ", \"closed_loop\": " << loop;
            os << " }";
        }
        os << " ] }";
    }
    os << "\n  ]\n}\n";
    return static_cast<bool>(os);
}

} // namespace tpnet::bench

#endif // TPNET_BENCH_REPORT_HPP
