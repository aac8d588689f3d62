/**
 * @file
 * Engine-compare fixture for the activity-scheduled event engine
 * (DESIGN.md §6i): every scenario runs twice in this process — event
 * engine on, then off (`--no-event-skip` semantics) — and the JSON
 * carries one "engine_compare" entry per scenario with both wall
 * clocks, the speedup, and the minimum speedup the CI gate demands
 * (`check_bench.py --engine-gate`).
 *
 * Two scenario families:
 *   - idle-heavy (low load / long drain / retry backoff / intermittent
 *     restores): the cycle-skip fast path must win >= 2x — these are
 *     the drain and recovery tails that dominate chaos campaigns;
 *   - saturated (load 0.30): the activity bookkeeping must not cost
 *     more than 25% (speedup >= 0.8) when nearly everything is busy.
 *
 * Both runs of a scenario must also be bit-identical; a divergence
 * fails the bench immediately (exit 1) — the perf numbers of a wrong
 * simulation are meaningless.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/simulator.hpp"

#include "common.hpp"

namespace {

using namespace tpnet;

struct Entry
{
    std::string label;
    double wallOn = 0.0;
    double wallOff = 0.0;
    double minSpeedup = 1.0;
    bool identical = true;

    double
    speedup() const
    {
        return wallOn > 0.0 ? wallOff / wallOn : 0.0;
    }
};

/** Best-of-@p reps wall clock of @p fn, in seconds. */
template <class F>
double
timeBest(int reps, F &&fn)
{
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    return best;
}

Entry
simulatorEntry(const std::string &label, SimConfig cfg,
               double min_speedup, int reps)
{
    Entry e;
    e.label = label;
    e.minSpeedup = min_speedup;
    RunResult on, off;
    cfg.eventEngine = true;
    e.wallOn = timeBest(reps, [&] { on = Simulator(cfg).run(); });
    cfg.eventEngine = false;
    e.wallOff = timeBest(reps, [&] { off = Simulator(cfg).run(); });
    e.identical = on.throughput == off.throughput &&
                  on.avgLatency == off.avgLatency &&
                  on.p95Latency == off.p95Latency &&
                  on.counters.generated == off.counters.generated &&
                  on.counters.delivered == off.counters.delivered &&
                  on.counters.dropped == off.counters.dropped &&
                  on.vc.samples == off.vc.samples;
    return e;
}

Entry
campaignEntry(const std::string &label, chaos::CampaignSpec spec,
              double min_speedup, int reps)
{
    Entry e;
    e.label = label;
    e.minSpeedup = min_speedup;
    std::string on, off;
    spec.cfg.eventEngine = true;
    e.wallOn = timeBest(
        reps, [&] { on = chaos::campaignJson(chaos::runCampaign(spec)); });
    spec.cfg.eventEngine = false;
    e.wallOff = timeBest(
        reps, [&] { off = chaos::campaignJson(chaos::runCampaign(spec)); });
    e.identical = on == off;
    return e;
}

bool
writeJson(const std::string &path, const std::vector<Entry> &entries,
          double wall)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(17);
    os << "{\n"
       << "  \"benchmark\": \"idle_drain\",\n"
       << "  \"fast\": " << (bench::fastMode() ? "true" : "false")
       << ",\n"
       << "  \"wall_seconds\": " << wall << ",\n"
       << "  \"engine_compare\": [";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        os << (i ? ",\n" : "\n")
           << "    { \"label\": \"" << bench::jsonEscape(e.label)
           << "\", \"wall_on\": " << bench::jsonNum(e.wallOn)
           << ", \"wall_off\": " << bench::jsonNum(e.wallOff)
           << ", \"speedup\": " << bench::jsonNum(e.speedup())
           << ", \"min_speedup\": " << bench::jsonNum(e.minSpeedup)
           << ", \"identical\": " << (e.identical ? "true" : "false")
           << " }";
    }
    os << "\n  ]\n}\n";
    return static_cast<bool>(os);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpnet;
    const bool fast = bench::fastMode();

    std::string json;
    OptionParser parser("idle_drain",
                        "event-engine vs time-stepped engine compare");
    parser.addString("json",
                     "also write the engine_compare results to this "
                     "file (gated by check_bench.py --engine-gate)",
                     &json);
    parser.parseOrExit(argc, argv);

    bench::banner("idle_drain — event-engine cycle-skip win",
                  "DESIGN.md §6i (engine bit-identity + perf gate)");
    const int reps = std::max(1, bench::envInt("TPNET_BENCH_REPS", 2));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Entry> entries;

    // Idle-heavy #1: a zero-load measurement window. The only work is
    // the metrics sampler's cadence, so the off engine's full per-cycle
    // scans are pure overhead.
    {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.load = 0.0;
        cfg.measure = fast ? 8000 : 30000;
        cfg.metricsPeriod = 100;
        entries.push_back(simulatorEntry("idle/zero-load-window", cfg,
                                         2.0, reps));
    }

    // Idle-heavy #2: a chaos campaign whose drain is dominated by
    // retry backoff and intermittent-restore waits — the recovery-tail
    // regime the fault-tolerance claims force us to simulate at scale.
    // All four links of node 9 go down together for a long outage, so
    // traffic to (and from) it strands in WaitRetry until the restores
    // fire; the drain is tens of thousands of near-idle cycles ending
    // in clean quiescence once the links return.
    {
        chaos::CampaignSpec spec;
        spec.cfg.k = 8;
        spec.cfg.n = 2;
        spec.cfg.protocol = Protocol::TwoPhase;
        spec.cfg.msgLength = 32;
        spec.cfg.seed = 20260705;
        spec.cfg.load = 0.05;
        spec.cfg.tailAck = true;
        spec.cfg.retryBackoff = 2500;  // < the 3000-cycle stall bound
        // Enough retry budget to outlast the outage: stranded traffic
        // delivers after the restore instead of dropping.
        spec.cfg.maxRetries = fast ? 12 : 30;
        spec.seed = 7;
        spec.injectCycles = 4000;
        spec.drainCycles = 200000;
        for (int port = 0; port < 4; ++port) {
            FaultEvent ev;
            ev.at = 150;
            ev.kind = FaultKind::LinkIntermittent;
            ev.node = 9;
            ev.port = port;
            ev.downFor = fast ? 20000 : 60000;
            spec.scriptedFaults.push_back(ev);
        }
        entries.push_back(campaignEntry("idle/retry-backoff-drain",
                                        spec, 2.0, reps));
    }

    // Saturated: load 0.30 keeps most routers busy every cycle, so the
    // event engine can win nothing — it must simply not cost > 25%.
    {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.load = 0.30;
        entries.push_back(simulatorEntry("saturated/load-0.30", cfg,
                                         0.8, reps));
    }

    bool diverged = false;
    std::printf("%-28s %10s %10s %9s %6s  %s\n", "scenario", "on (s)",
                "off (s)", "speedup", "min", "identical");
    for (const Entry &e : entries) {
        std::printf("%-28s %10.4f %10.4f %8.2fx %5.2gx  %s\n",
                    e.label.c_str(), e.wallOn, e.wallOff, e.speedup(),
                    e.minSpeedup, e.identical ? "yes" : "NO");
        diverged = diverged || !e.identical;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::printf("# wall %.3f s, best-of-%d per engine\n", wall, reps);

    if (!json.empty()) {
        if (!writeJson(json, entries, wall)) {
            std::fprintf(stderr, "error: could not write %s\n",
                         json.c_str());
            return 1;
        }
        std::printf("# wrote %s\n", json.c_str());
    }
    if (diverged) {
        std::fprintf(stderr, "error: engines diverged — results above "
                             "are not bit-identical\n");
        return 1;
    }
    return 0;
}
