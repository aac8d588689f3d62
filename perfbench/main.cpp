/**
 * @file
 * tpnet performance benchmark program.
 *
 *   tpnet_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run repeats one pass (the workload's fixed set of items: Simulator
 * replications or chaos campaigns, made from the seed) for about S
 * seconds.
 * --trace 0 runs the items through the library's own entry points and
 * reports the end-to-end metrics; each item's time is its best over the
 * run's passes, whose number untracedPasses() fixes.
 * --trace 1 alternates an untraced pass with a pass through the traced
 * replicas of replica.hpp and reports where the time goes per layer.
 * Both modes check every item (see verdict() in reduce.hpp), print a
 * human report, and end with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * The exit code is nonzero when any item failed. Other modes:
 *   --self-test                 test the reducers and the metric names
 *   --record-expected           print the digests of one pass's items
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/simulator.hpp"

#include "reduce.hpp"
#include "replica.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every run ends well inside the 180 s a run may take.
constexpr double kHardCapSeconds = 140.0;

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *what;  ///< one line for the human report
};

/** Reported with --trace 0 (mirrors BENCHMARK.json "end_to_end"). */
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "host time of one pass, each item at its best"},
    {"setup_s", "s", "Network(cfg) of one pass's items, median round"},
    {"sim_cycles_per_s", "1/s", "simulated cycles of a pass / wall_s"},
    {"item_ms_p50", "ms", "best host time of one item, median item"},
    {"item_ms_p95", "ms", "best host time of one item, tail percentile"},
    {"peak_rss_mb", "MB", "peak RSS of the program (VmHWM)"},
    {"sim_latency_cyc", "cyc", "mean message latency (modelled)"},
    {"sim_throughput", "flit/node/cyc", "delivered data flits (modelled)"},
    {"delivered_frac", "frac", "delivered / generated messages (modelled)"},
};

/** Reported with --trace 1 (mirrors BENCHMARK.json "per_layer"). */
constexpr MetricDef kPerLayer[] = {
    {"core.network.step.s", "s", ""},
    {"core.network.step.share", "frac", ""},
    {"core.network.step_us.p50", "us", ""},
    {"core.network.step_us.p99", "us", ""},
    {"core.network.step.calls", "count", ""},
    {"core.network.ns_per_data_hop", "ns", ""},
    {"core.network.ns_per_header_move", "ns", ""},
    {"routing.header_moves", "count", ""},
    {"routing.backtracks", "count", ""},
    {"routing.misroutes", "count", ""},
    {"routing.detours", "count", ""},
    {"routing.setup_aborts", "count", ""},
    {"routing.backtrack_ratio", "ratio", ""},
    {"flow.data_hops", "count", ""},
    {"flow.ctrl_hops", "count", ""},
    {"flow.pos_acks", "count", ""},
    {"flow.msg_acks", "count", ""},
    {"flow.ctrl_per_data", "ratio", ""},
    {"traffic.step.s", "s", ""},
    {"traffic.step.share", "frac", ""},
    {"traffic.generated", "count", ""},
    {"traffic.rejected", "count", ""},
    {"traffic.replies", "count", ""},
    {"traffic.accept_ratio", "ratio", ""},
    {"chaos.schedule.s", "s", ""},
    {"chaos.watchdog.s", "s", ""},
    {"chaos.watchdog.share", "frac", ""},
    {"chaos.audit.s", "s", ""},
    {"chaos.faults_fired", "count", ""},
    {"chaos.violations", "count", ""},
    {"fault.kill_flits", "count", ""},
    {"fault.messages_killed", "count", ""},
    {"fault.retries", "count", ""},
    {"fault.retransmits", "count", ""},
    {"verify.cwg_cycles", "count", ""},
    {"verify.cwg_benign", "count", ""},
    {"core.engine.skip.s", "s", ""},
    {"core.engine.skipped_cycles", "count", ""},
    {"core.engine.skip_frac", "frac", ""},
    {"obs.tick.s", "s", ""},
    {"core.setup.s", "s", ""},
    {"other.s", "s", ""},
    {"trace.loop.s", "s", ""},
    {"trace.overhead_frac", "frac", ""},
    {"trace.coverage", "frac", ""},
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** What one item produced, reduced to what the benchmark reports. */
struct Outcome
{
    std::uint64_t digest = 0;
    std::string health;         ///< empty = healthy (see ItemCheck)
    double cycles = 0;          ///< simulated cycles, stepped + skipped
    double flits = 0;           ///< data flits delivered in the window
    double nodeCycles = 0;      ///< nodes x window cycles
    double offered = 0;         ///< messages generated in the window
    double delivered = 0;       ///< of those, delivered
    tpnet::RunningStat latency; ///< delivered messages, cycles
    tpnet::Counters counters;
    std::uint64_t faultsFired = 0;
    std::uint64_t violations = 0;
    std::uint64_t cwgCycles = 0;
    std::uint64_t cwgBenign = 0;
};

/** A replication's window is its measurement window. */
Outcome
outcomeOf(const tpnet::RunResult &r, const tpnet::SimConfig &cfg)
{
    const tpnet::Counters &c = r.counters;
    Outcome o;
    o.digest = resultDigest(r);
    if (r.degenerate)
        o.health = "degenerate traffic: nothing offered";
    else if (c.measuredDelivered + c.measuredDropped < c.measuredGenerated ||
             c.e2ePending != 0)
        o.health = "measured messages unresolved when the drain ended";
    o.flits = static_cast<double>(c.windowDataFlits);
    o.nodeCycles = static_cast<double>(cfg.nodes()) *
                   static_cast<double>(cfg.measure);
    o.offered = static_cast<double>(c.measuredGenerated);
    o.delivered = static_cast<double>(c.measuredDelivered);
    o.latency = c.latency;
    o.counters = c;
    return o;
}

/** A campaign's window is the whole campaign. */
Outcome
outcomeOf(const tpnet::chaos::CampaignResult &r, int nodes)
{
    Outcome o;
    o.digest = resultDigest(r);
    if (!r.violations.empty())
        o.health = "violation: " + r.violations.front();
    else if (!r.quiescent)
        o.health = "did not reach quiescence";
    else if (r.degenerate)
        o.health = "degenerate traffic: nothing offered";
    o.cycles = static_cast<double>(r.cycles);
    o.flits = static_cast<double>(r.counters.dataFlitsDelivered);
    o.nodeCycles = static_cast<double>(nodes) * static_cast<double>(r.cycles);
    o.offered = static_cast<double>(r.counters.generated);
    o.delivered = static_cast<double>(r.counters.delivered);
    o.counters = r.counters;
    o.faultsFired = r.faultsFired;
    o.violations = r.violations.size();
    o.cwgCycles = r.cwgCycles;
    o.cwgBenign = r.cwgBenign;
    return o;
}

/** One item through the library's own entry point. */
Outcome
runLibrary(const Workload &w, std::uint64_t seed, std::uint64_t item)
{
    if (w.kind == Kind::Simulator) {
        const tpnet::SimConfig cfg = simulatorConfig(w, seed);
        return outcomeOf(tpnet::Simulator(cfg).run(item), cfg);
    }
    const tpnet::chaos::CampaignSpec spec =
        campaignSpec(w, campaignSeed(seed, item));
    return outcomeOf(tpnet::chaos::runCampaign(spec), spec.cfg.nodes());
}

/**
 * The same item through the traced replica. It also yields what the
 * library call does not report: a replication's simulated cycle count
 * and a campaign's message latency.
 */
Outcome
runReplica(const Workload &w, std::uint64_t seed, std::uint64_t item,
           LayerTimes &layers)
{
    if (w.kind == Kind::Simulator) {
        const tpnet::SimConfig cfg = simulatorConfig(w, seed);
        const std::uint64_t before =
            layers.stepUs.size() + layers.skippedCycles;
        Outcome o = outcomeOf(tracedSimulatorRun(cfg, item, layers), cfg);
        o.cycles = static_cast<double>(layers.stepUs.size() +
                                       layers.skippedCycles - before);
        return o;
    }
    const tpnet::chaos::CampaignSpec spec =
        campaignSpec(w, campaignSeed(seed, item));
    tpnet::RunningStat latency;
    Outcome o = outcomeOf(tracedCampaign(spec, layers, &latency),
                          spec.cfg.nodes());
    o.latency = latency;
    return o;
}

/** The seed whose digests expected_digests.txt records. */
constexpr std::uint64_t kRecordedSeed = 1;

/**
 * Digests recorded for (workload, seed), by item index. Exits with
 * code 2 when the file cannot be read, or when it lacks a digest of
 * one of the recorded seed's items: the gate must not switch off.
 */
std::map<std::uint64_t, std::uint64_t>
loadExpected(const std::string &path, const Workload &w, std::uint64_t seed)
{
    std::map<std::uint64_t, std::uint64_t> out;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "error: cannot read expected digests '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    const std::string workload = w.name;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name;
        std::uint64_t s = 0, item = 0, digest = 0;
        if (is >> name >> s >> item >> std::hex >> digest &&
            name == workload && s == seed)
            out[item] = digest;
    }
    if (seed == kRecordedSeed &&
        out.size() != static_cast<std::size_t>(w.passItems)) {
        std::fprintf(stderr,
                     "error: '%s' records %zu of %s's %d seed-%" PRIu64
                     " digests\n",
                     path.c_str(), out.size(), w.name, w.passItems, seed);
        std::exit(2);
    }
    return out;
}

/** Set-up rounds per run, and the least time one round repeats. */
constexpr int kSetupRounds = 9;
constexpr double kSetupRoundSeconds = 0.1;

/**
 * Host seconds to construct the Networks of one pass's items: the
 * median over kSetupRounds rounds of each round's fastest of at least
 * 3 repeats and kSetupRoundSeconds. The rounds run back to back before
 * the first pass, so every run measures from the same allocator state;
 * rounds taken between items saw whatever heap the last item left, and
 * read either about 0.9 or about 1.3 ms on uniform_sat.
 */
double
setupSeconds(const Workload &w, std::uint64_t seed)
{
    std::vector<tpnet::SimConfig> cfgs;
    for (int i = 0; i < w.passItems; ++i)
        cfgs.push_back(
            itemNetworkConfig(w, seed, static_cast<std::uint64_t>(i)));
    std::vector<double> rounds;
    for (int round = 0; round < kSetupRounds; ++round) {
        double best = 0;
        const Clock::time_point start = Clock::now();
        for (int r = 0; r < 3 || since(start) < kSetupRoundSeconds; ++r) {
            const Clock::time_point t0 = Clock::now();
            for (const tpnet::SimConfig &cfg : cfgs) {
                tpnet::Network net(cfg);
                if (net.now() != 0)
                    std::abort();
            }
            const double s = since(t0);
            best = r == 0 ? s : std::min(best, s);
        }
        rounds.push_back(best);
    }
    return median(rounds);
}

/**
 * Peak resident memory of this program image (VmHWM). getrusage's
 * ru_maxrss outlives exec, so it also counted whatever image run.sh's
 * shell process had before it exec'd the benchmark.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    double kib = 0;
    while (in >> key) {
        if (key == "VmHWM:" && in >> kib)
            return kib / 1024.0;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    std::fprintf(stderr, "error: no VmHWM in /proc/self/status\n");
    std::exit(2);
}

/** Collects metric values by name and prints them in table order. */
class Report
{
  public:
    template <std::size_t N>
    explicit Report(const MetricDef (&defs)[N]) : defs_(defs, defs + N)
    {
    }

    void
    set(const std::string &name, double value)
    {
        for (const MetricDef &d : defs_) {
            if (name == d.name) {
                values_[name] = value;
                return;
            }
        }
        std::fprintf(stderr, "internal error: unknown metric %s\n",
                     name.c_str());
        std::exit(3);
    }

    double
    get(const std::string &name) const
    {
        auto it = values_.find(name);
        if (it == values_.end()) {
            std::fprintf(stderr, "internal error: metric %s unset\n",
                         name.c_str());
            std::exit(3);
        }
        return it->second;
    }

    /** One line per metric: name, value, unit, what it is. */
    void
    print() const
    {
        for (const MetricDef &d : defs_)
            std::printf("  %-18s %14.6g %-14s %s\n", d.name, get(d.name),
                        d.unit, d.what);
    }

    std::string
    json(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        bool first = true;
        for (const MetricDef &d : defs_) {
            const double v = get(d.name);
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
            os << (first ? "" : ", ") << "\"" << d.name
               << "\": {\"value\": " << num << ", \"unit\": \"" << d.unit
               << "\"}";
            first = false;
        }
        os << "}}";
        return os.str();
    }

  private:
    std::vector<MetricDef> defs_;
    std::map<std::string, double> values_;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string expected;
};

/**
 * Print the failures and the result line; the exit code is nonzero
 * when any item failed.
 */
int
finish(const Report &report, const std::vector<ItemCheck> &checks)
{
    const std::uint64_t failed = countFailed(checks);
    std::printf("  %-18s %14.6g %-14s %" PRIu64 " of %zu items\n",
                "failed_frac", failedFrac(checks), "frac", failed,
                checks.size());
    for (std::size_t i = 0; i < checks.size(); ++i) {
        const std::string why = verdict(checks[i]);
        if (!why.empty())
            std::printf("  FAILED item run %zu: %s\n", i, why.c_str());
    }
    std::printf("%s\n",
                report.json(failed == 0, checks.size(), failed).c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

/** Another pass fits in the run's measuring time. */
bool
anotherPass(const Options &opt, Clock::time_point loopStart,
            Clock::time_point processStart, double passSeconds)
{
    return since(loopStart) + passSeconds <= opt.seconds &&
           since(processStart) + passSeconds < kHardCapSeconds;
}

/**
 * Passes of an untraced run: --seconds over the workload's nominal pass
 * time, at least two. The count is fixed rather than "while time is
 * left": a campaign pass takes a third of a run, so under that rule a
 * slowed run also made fewer passes, and its best-of-two read about 20%
 * above other runs' best-of-three.
 */
std::size_t
untracedPasses(const Workload &w, const Options &opt)
{
    return static_cast<std::size_t>(
        std::max(2L, std::lround(opt.seconds / w.passSeconds)));
}

/** Checks of one pass: library digests against replica and record. */
void
addChecks(std::vector<ItemCheck> &checks,
          const std::vector<std::uint64_t> &library,
          const std::vector<Outcome> &replica,
          const std::map<std::uint64_t, std::uint64_t> &expected)
{
    for (std::size_t i = 0; i < library.size(); ++i) {
        ItemCheck c;
        c.library = library[i];
        c.replica = replica[i].digest;
        c.health = replica[i].health;
        if (auto it = expected.find(i); it != expected.end())
            c.expected = it->second;
        checks.push_back(c);
    }
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics through the library entry points.

int
runUntraced(const Workload &w, const Options &opt,
            Clock::time_point processStart)
{
    const auto expected = loadExpected(opt.expected, w, opt.seed);
    const double setupS = setupSeconds(w, opt.seed);

    // Co-tenant load on the host slows whole seconds of a run, and only
    // ever slows it, so each item keeps its best time over the passes.
    const std::size_t passes = untracedPasses(w, opt);
    std::vector<double> best(static_cast<std::size_t>(w.passItems), 1e300);
    std::vector<double> passWalls;
    std::vector<std::vector<std::uint64_t>> passDigests;
    const Clock::time_point loopStart = Clock::now();
    do {
        std::vector<std::uint64_t> digests;
        double passWall = 0;
        for (std::size_t i = 0; i < best.size(); ++i) {
            const Clock::time_point ti = Clock::now();
            digests.push_back(runLibrary(w, opt.seed, i).digest);
            const double s = since(ti);
            best[i] = std::min(best[i], s);
            passWall += s;
        }
        passWalls.push_back(passWall);
        passDigests.push_back(std::move(digests));
    } while (passWalls.size() < passes &&
             since(processStart) + median(passWalls) < kHardCapSeconds);
    const double loopS = since(loopStart);

    // Untimed: each item once through the replica, which the checks
    // prove bit-identical to every library run of the item, and which
    // gives the modelled metrics.
    std::vector<Outcome> replica;
    for (int i = 0; i < w.passItems; ++i) {
        LayerTimes scratch;
        replica.push_back(
            runReplica(w, opt.seed, static_cast<std::uint64_t>(i), scratch));
    }
    std::vector<ItemCheck> checks;
    for (const auto &digests : passDigests)
        addChecks(checks, digests, replica, expected);

    double cycles = 0, flits = 0, nodeCycles = 0, offered = 0, delivered = 0;
    tpnet::RunningStat latency;
    for (const Outcome &o : replica) {
        cycles += o.cycles;
        flits += o.flits;
        nodeCycles += o.nodeCycles;
        offered += o.offered;
        delivered += o.delivered;
        latency.merge(o.latency);
    }
    double wall = 0;
    std::vector<double> itemMs;
    for (double s : best) {
        wall += s;
        itemMs.push_back(s * 1e3);
    }
    const Tail p95 = tailPercentile(itemMs, 0.95);

    Report report(kEndToEnd);
    report.set("wall_s", wall);
    report.set("setup_s", setupS);
    report.set("sim_cycles_per_s", cycles / wall);
    report.set("item_ms_p50", median(itemMs));
    report.set("item_ms_p95", p95.value);
    report.set("peak_rss_mb", peakRssMb());
    report.set("sim_latency_cyc", latency.mean());
    report.set("sim_throughput", ratio(flits, nodeCycles));
    report.set("delivered_frac", ratio(delivered, offered));

    std::printf("perfbench %s seed %" PRIu64 ": %zu passes of %d items in "
                "%.2f s; %zu item runs checked against the traced replica, "
                "%zu items against recorded digests\n",
                w.name, opt.seed, passWalls.size(), w.passItems, loopS,
                checks.size(), expected.size());
    report.print();
    std::printf("  item_ms_p95 is p%.1f of n=%zu items, %zu beyond "
                "it%s\n",
                100 * p95.percentile, p95.samples, p95.beyond,
                p95.beyond < 10 ? " (too few items for a 10-item tail: the maximum)"
                                : "");
    return finish(report, checks);
}

// ---------------------------------------------------------------------
// --trace 1: per-layer split from the traced replica.

/** Exact counts of one pass, summed over its items. */
struct PassCounts
{
    double headerMoves = 0, backtracks = 0, misroutes = 0, detours = 0;
    double setupAborts = 0, dataHops = 0, ctrlHops = 0, posAcks = 0;
    double msgAcks = 0, generated = 0, rejected = 0, replies = 0;
    double killFlits = 0, killed = 0, retries = 0, retransmits = 0;
    double faultsFired = 0, violations = 0, cwgCycles = 0, cwgBenign = 0;

    void
    add(const Outcome &o)
    {
        const tpnet::Counters &c = o.counters;
        headerMoves += static_cast<double>(c.headerMoves);
        backtracks += static_cast<double>(c.backtracks);
        misroutes += static_cast<double>(c.misroutes);
        detours += static_cast<double>(c.detoursBuilt);
        setupAborts += static_cast<double>(c.setupAborts);
        dataHops += static_cast<double>(c.dataCrossings);
        ctrlHops += static_cast<double>(c.ctrlCrossings);
        posAcks += static_cast<double>(c.posAcks);
        msgAcks += static_cast<double>(c.msgAcks);
        generated += static_cast<double>(c.generated);
        rejected += static_cast<double>(c.notAccepted);
        replies += static_cast<double>(c.repliesGenerated);
        killFlits += static_cast<double>(c.killFlits);
        killed += static_cast<double>(c.messagesKilled);
        retries += static_cast<double>(c.retriesScheduled);
        retransmits += static_cast<double>(c.retransmits);
        faultsFired += static_cast<double>(o.faultsFired);
        violations += static_cast<double>(o.violations);
        cwgCycles += static_cast<double>(o.cwgCycles);
        cwgBenign += static_cast<double>(o.cwgBenign);
    }
};

/** Per-layer metrics of one traced pass, but the tracing overhead. */
std::map<std::string, double>
layerMetrics(const LayerTimes &t, const PassCounts &k)
{
    std::map<std::string, double> m;
    std::vector<double> steps(t.stepUs.begin(), t.stepUs.end());
    const double stepped = static_cast<double>(steps.size());
    const double simCycles = stepped + static_cast<double>(t.skippedCycles);
    m["core.network.step.s"] = t.network;
    m["core.network.step.share"] = ratio(t.network, t.loop());
    m["core.network.step_us.p50"] = tailPercentile(steps, 0.50).value;
    m["core.network.step_us.p99"] = tailPercentile(steps, 0.99).value;
    m["core.network.step.calls"] = stepped;
    m["core.network.ns_per_data_hop"] = ratio(t.network * 1e9, k.dataHops);
    m["core.network.ns_per_header_move"] =
        ratio(t.network * 1e9, k.headerMoves);
    m["routing.header_moves"] = k.headerMoves;
    m["routing.backtracks"] = k.backtracks;
    m["routing.misroutes"] = k.misroutes;
    m["routing.detours"] = k.detours;
    m["routing.setup_aborts"] = k.setupAborts;
    m["routing.backtrack_ratio"] = ratio(k.backtracks, k.headerMoves);
    m["flow.data_hops"] = k.dataHops;
    m["flow.ctrl_hops"] = k.ctrlHops;
    m["flow.pos_acks"] = k.posAcks;
    m["flow.msg_acks"] = k.msgAcks;
    m["flow.ctrl_per_data"] = ratio(k.ctrlHops, k.dataHops);
    m["traffic.step.s"] = t.traffic;
    m["traffic.step.share"] = ratio(t.traffic, t.loop());
    m["traffic.generated"] = k.generated;
    m["traffic.rejected"] = k.rejected;
    m["traffic.replies"] = k.replies;
    m["traffic.accept_ratio"] = ratio(k.generated, k.generated + k.rejected);
    m["chaos.schedule.s"] = t.schedule;
    m["chaos.watchdog.s"] = t.watchdog;
    m["chaos.watchdog.share"] = ratio(t.watchdog, t.loop());
    m["chaos.audit.s"] = t.audit;
    m["chaos.faults_fired"] = k.faultsFired;
    m["chaos.violations"] = k.violations;
    m["fault.kill_flits"] = k.killFlits;
    m["fault.messages_killed"] = k.killed;
    m["fault.retries"] = k.retries;
    m["fault.retransmits"] = k.retransmits;
    m["verify.cwg_cycles"] = k.cwgCycles;
    m["verify.cwg_benign"] = k.cwgBenign;
    m["core.engine.skip.s"] = t.engine;
    m["core.engine.skipped_cycles"] = static_cast<double>(t.skippedCycles);
    m["core.engine.skip_frac"] =
        ratio(static_cast<double>(t.skippedCycles), simCycles);
    m["obs.tick.s"] = t.obs;
    m["core.setup.s"] = t.setup;
    m["other.s"] = t.other;
    m["trace.loop.s"] = t.loop();
    m["trace.coverage"] = ratio(t.covered(), t.loop());
    return m;
}

/** "name value, name value" with integers printed as integers. */
std::string
keyCounts(std::initializer_list<std::pair<const char *, double>> kv)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[name, v] : kv) {
        os << (first ? "" : ", ") << name << " " << std::fixed
           << std::setprecision(v == std::floor(v) ? 0 : 3) << v;
        first = false;
    }
    return os.str();
}

void
printLayerTable(const Workload &w, const Report &r, const LayerTimes &t,
                const PassCounts &k, std::size_t passes)
{
    const double loop = r.get("trace.loop.s");
    std::printf("where the time goes: %s, traced pass of %d items, median "
                "of %zu passes (calls and counts: last pass)\n",
                w.name, w.passItems, passes);
    std::printf("  %-16s %10s %7s %10s  %s\n", "layer", "seconds", "share",
                "calls", "key counts");
    auto row = [&](const char *layer, double s, std::uint64_t calls,
                   const std::string &counts) {
        std::printf("  %-16s %10.4f %6.1f%% %10" PRIu64 "  %s\n", layer, s,
                    100 * ratio(s, loop), calls, counts.c_str());
    };
    row("core.setup", r.get("core.setup.s"), t.setupCalls,
        keyCounts({{"networks", static_cast<double>(t.setupCalls)}}));
    row("traffic", r.get("traffic.step.s"), t.trafficCalls,
        keyCounts({{"generated", k.generated},
                   {"rejected", k.rejected},
                   {"replies", k.replies}}));
    row("core.network", r.get("core.network.step.s"), t.stepUs.size(),
        keyCounts({{"data hops", k.dataHops},
                   {"ctrl hops", k.ctrlHops},
                   {"header moves", k.headerMoves},
                   {"detours", k.detours}}));
    row("core.engine", r.get("core.engine.skip.s"), t.engineCalls,
        keyCounts({{"skipped cycles", static_cast<double>(t.skippedCycles)},
                   {"skip frac", r.get("core.engine.skip_frac")}}));
    row("obs", r.get("obs.tick.s"), t.obsCalls, "");
    row("chaos.schedule", r.get("chaos.schedule.s"), t.scheduleCalls,
        keyCounts({{"faults fired", k.faultsFired}}));
    row("chaos.watchdog", r.get("chaos.watchdog.s"), t.watchdogCalls,
        keyCounts({{"violations", k.violations}}));
    row("chaos.audit", r.get("chaos.audit.s"), t.auditCalls,
        keyCounts({{"cwg cycles", k.cwgCycles}, {"benign", k.cwgBenign}}));
    row("other", r.get("other.s"), 0, "");
    std::printf("  %-16s %10.4f %6.1f%%  coverage %.1f%%, tracing overhead "
                "%+.1f%%\n",
                "loop", loop, 100.0, 100 * r.get("trace.coverage"),
                100 * r.get("trace.overhead_frac"));
    std::printf("  step time p50 %.2f us, p99 %.2f us over %.0f stepped "
                "cycles\n",
                r.get("core.network.step_us.p50"),
                r.get("core.network.step_us.p99"),
                r.get("core.network.step.calls"));
}

int
runTraced(const Workload &w, const Options &opt,
          Clock::time_point processStart)
{
    const auto expected = loadExpected(opt.expected, w, opt.seed);
    std::vector<ItemCheck> checks;
    std::vector<std::map<std::string, double>> perPass;
    std::vector<double> repeatWalls, untracedPasses, tracedPasses;
    LayerTimes lastTimes;
    PassCounts lastCounts;

    const Clock::time_point loopStart = Clock::now();
    do {
        const Clock::time_point repeatStart = Clock::now();
        double untracedS = 0;
        std::vector<std::uint64_t> library;
        for (int i = 0; i < w.passItems; ++i) {
            const Clock::time_point t0 = Clock::now();
            library.push_back(
                runLibrary(w, opt.seed, static_cast<std::uint64_t>(i))
                    .digest);
            untracedS += since(t0);
        }
        LayerTimes t;
        PassCounts k;
        std::vector<Outcome> replica;
        for (int i = 0; i < w.passItems; ++i) {
            replica.push_back(
                runReplica(w, opt.seed, static_cast<std::uint64_t>(i), t));
            k.add(replica.back());
        }
        addChecks(checks, library, replica, expected);
        perPass.push_back(layerMetrics(t, k));
        untracedPasses.push_back(untracedS);
        tracedPasses.push_back(t.loop());
        lastTimes = std::move(t);
        lastCounts = k;
        repeatWalls.push_back(since(repeatStart));
    } while (anotherPass(opt, loopStart, processStart, median(repeatWalls)));

    Report report(kPerLayer);
    for (const auto &[name, value] : perPass.front()) {
        std::vector<double> v;
        for (const auto &m : perPass)
            v.push_back(m.at(name));
        report.set(name, median(v));
    }
    // Best traced pass against best untraced pass, as in --trace 0.
    report.set("trace.overhead_frac",
               *std::min_element(tracedPasses.begin(), tracedPasses.end()) /
                       *std::min_element(untracedPasses.begin(),
                                         untracedPasses.end()) -
                   1.0);
    printLayerTable(w, report, lastTimes, lastCounts, perPass.size());
    return finish(report, checks);
}

// ---------------------------------------------------------------------

int
recordExpected(const Workload &w, std::uint64_t seed)
{
    for (int i = 0; i < w.passItems; ++i) {
        const Outcome o = runLibrary(w, seed, static_cast<std::uint64_t>(i));
        if (!o.health.empty()) {
            std::fprintf(stderr, "item %d is not healthy: %s\n", i,
                         o.health.c_str());
            return 1;
        }
        std::printf("%s %" PRIu64 " %d %016" PRIx64 "\n", w.name, seed, i,
                    o.digest);
        std::fflush(stdout);
    }
    return 0;
}

int
selfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    // Percentile selection keeps 10 samples beyond and reports n.
    std::vector<double> v;
    for (int i = 1; i <= 250; ++i)
        v.push_back(i);
    Tail t = tailPercentile(v, 0.95);
    expect(t.value == 238 && t.beyond == 12 && t.samples == 250,
           "p95 of 250 samples is rank 238 with 12 beyond");
    v.resize(200);
    t = tailPercentile(v, 0.95);
    expect(t.value == 190 && t.beyond == 10 && t.samples == 200,
           "p95 of 200 samples keeps exactly 10 beyond");
    v.resize(100);
    t = tailPercentile(v, 0.95);
    expect(t.value == 90 && t.beyond == 10 && t.percentile == 0.90,
           "p95 of 100 samples falls back to p90 with 10 beyond");
    v.resize(21);
    t = tailPercentile(v, 0.95);
    expect(t.value == 11 && t.beyond == 10, "21 samples keep 10 beyond");
    v.resize(20);
    t = tailPercentile(v, 0.95);
    expect(t.value == 20 && t.beyond == 0 && t.samples == 20,
           "20 samples give their maximum: no tail above the median");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5,
           "median of odd and even counts");

    // A forced digest mismatch raises failed_frac.
    std::vector<ItemCheck> checks(4);
    for (ItemCheck &c : checks) {
        c.library = 42;
        c.replica = 42;
        c.expected = 42;
    }
    expect(failedFrac(checks) == 0, "matching digests fail nothing");
    checks[1].replica = 43;
    expect(failedFrac(checks) == 0.25, "a replica mismatch fails its item");
    checks[2].expected = 41;
    expect(failedFrac(checks) == 0.5, "an expected-digest mismatch fails");
    checks[3].health = "did not reach quiescence";
    expect(failedFrac(checks) == 0.75, "an unhealthy run fails");

    // addChecks pairs each library digest with its replica and record.
    std::vector<Outcome> replica(2);
    replica[0].digest = 7;
    replica[1].digest = 8;
    checks.clear();
    addChecks(checks, {7, 8}, replica, {{0, 7}, {1, 8}});
    addChecks(checks, {7, 9}, replica, {{0, 7}, {1, 8}});
    expect(checks.size() == 4 && failedFrac(checks) == 0.25,
           "a forced library/replica mismatch in one of two passes fails "
           "one item run of four");

    // Metric names and units use only the allowed characters, once each.
    std::map<std::string, int> seen;
    bool namesOk = true;
    for (const MetricDef &d : kEndToEnd)
        namesOk = namesOk && validMetricName(d.name) && validUnit(d.unit) &&
                  seen[d.name]++ == 0;
    for (const MetricDef &d : kPerLayer)
        namesOk = namesOk && validMetricName(d.name) && validUnit(d.unit) &&
                  seen[d.name]++ == 0;
    for (const Workload &w : kWorkloads)
        namesOk = namesOk && validMetricName(w.name);
    expect(namesOk, "metric and workload names and units are valid, "
                    "metric names unique");
    expect(!validMetricName("_x") && !validMetricName("a b") &&
               !validMetricName(std::string(65, 'a')) &&
               validMetricName(std::string(64, 'a')) &&
               !validUnit("flits per cycle"),
           "the name grammar rejects bad names");

    // BENCHMARK.json lists exactly these metrics (when run from the
    // repository root).
    std::ifstream in("BENCHMARK.json");
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string doc = ss.str();
        bool listed = true;
        for (const auto &[name, count] : seen)
            listed = listed &&
                     doc.find("\"name\": \"" + name + "\"") !=
                         std::string::npos;
        for (const Workload &w : kWorkloads)
            listed = listed && doc.find("\"name\": \"" + std::string(w.name) +
                                        "\"") != std::string::npos;
        expect(listed, "BENCHMARK.json names every metric and workload");
    }

    std::printf("self-test: %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: tpnet_perfbench --workload NAME "
                 "--expected FILE [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       tpnet_perfbench --self-test\n"
                 "       tpnet_perfbench --workload NAME --seed N "
                 "--record-expected\nworkloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    Options opt;
    bool record = false, self = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                std::exit(usage(("missing value for " + arg).c_str()));
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace")
                opt.trace = std::stoi(value());
            else if (arg == "--expected")
                opt.expected = value();
            else if (arg == "--record-expected")
                record = true;
            else if (arg == "--self-test")
                self = true;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (self)
        return selfTest();
    const Workload *w = findWorkload(opt.workload);
    if (!w)
        return usage("unknown or missing --workload");
    if (opt.trace != 0 && opt.trace != 1)
        return usage("--trace takes 0 or 1");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    if (record)
        return recordExpected(*w, opt.seed);
    return opt.trace ? runTraced(*w, opt, processStart)
                     : runUntraced(*w, opt, processStart);
}
