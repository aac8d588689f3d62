/**
 * @file
 * tpnet_verify — the standing robustness gate: seeded chaos campaigns
 * with the CWG deadlock analyzer armed, across protocol grids.
 *
 * Runs N seeded chaos campaigns with the channel-wait-for-graph tracker
 * armed, sweeping {DP, PCS, SR K=1..5, TP K=0, TP K=3} x topology
 * (8-ary 2-cube, binary and 4-ary 3-cubes, 16-ary 2-cube, 8-ary
 * 2-mesh, express cube, dragonfly) x offered load x fault intensity x
 * ack configuration (TAck, hardware acks), plus a Two-Phase tail-ack
 * block on 8-ary and 4-ary 2-cubes. Every campaign injects randomized
 * node kills, permanent link kills and intermittent link faults into
 * live traffic and audits deadlock freedom online: any wait cycle
 * through an escape class and any knot (a blocked set whose entire
 * candidate ownership closes over itself with no exit) is a violation;
 * benign cycles that persist past their bound surface as warnings. The
 * progress watchdog and the exactly-once delivery oracle run too, so
 * ordinary chaos violations are also caught.
 *
 * The simulator options (protocol, topology, geometry, K, load,
 * classes, acks, ...) apply on top of every grid cell: a replay pins a
 * campaign to the shrunk case, and a sweep can be focused on one
 * protocol or topology (`--protocol TP`, `--topology mesh`).
 *
 * The grid interleaves its topology blocks round-robin, so any window
 * of consecutive seeds (e.g. a 25-campaign CI smoke) samples every
 * topology, including the 3-cubes, the 16-ary torus, and the
 * workload-library cells (bursty on-off, multi-class permutation
 * mixes, closed-loop request-reply).
 *
 * When a campaign fails (and --no-shrink is not given), the tool
 * shrinks it to a minimal still-failing case: class-level reductions
 * first (halve the injection window, drop fault classes, shrink the
 * topology, halve the load), then event-level delta debugging of the
 * pinned fault timeline — each individual kill/restore event is
 * removed if the failure survives without it. The minimal case is
 * printed as a single replayable command, topology-qualified and with
 * the surviving events inline.
 *
 * With --recovery the same grid runs in knot-triggered deadlock
 * recovery mode (DESIGN.md Section 6g): escape bandwidth is released
 * to the adaptive pool, and every confirmed knot is healed by aborting
 * a victim instead of being reported as a violation — only heal-budget
 * escalations (livelock) fail a campaign. --compare runs the headline
 * avoidance-vs-recovery experiment: both modes over the full grid at
 * each point of a fault-intensity axis, summarized as one table.
 * --hook-skip-kills breaks fault recovery on purpose; the campaigns
 * must then FAIL, which proves the oracle can see it.
 *
 * Examples:
 *   tpnet_verify --campaigns 200 --jobs 8
 *   tpnet_verify --campaigns 25 --max-cycles 6000
 *   tpnet_verify --campaigns 200 --recovery --victim fewest-hops
 *   tpnet_verify --compare --campaigns 80 --jobs 8
 *   tpnet_verify --campaigns 3 --hook-skip-kills
 *   tpnet_verify --replay-seed 42 --k 16 --n 2 --verbose
 *   tpnet_verify --replay-seed 42 --fault-events "120:n:5:-1:0"
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "chaos/shrink.hpp"
#include "sim/log.hpp"
#include "sim/options.hpp"
#include "topology/registry.hpp"

namespace {

using namespace tpnet;
using namespace tpnet::chaos;

/** One cell of the fuzz grid. */
struct Cell
{
    SimConfig cfg;             ///< the cell's simulator configuration
    double faultScale = 1.0;   ///< fault-intensity multiplier
    const char *workload = ""; ///< tag of a workload-library cell
};

/**
 * Label of the campaign @p spec, as it ran (after the options on top
 * of its grid cell).
 */
std::string
describe(const CampaignSpec &spec, double fx, const std::string &workload)
{
    const SimConfig &cfg = spec.cfg;
    char topo[32];
    switch (cfg.topology) {
      case TopologyKind::Mesh:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-mesh", cfg.k, cfg.n);
        break;
      case TopologyKind::Express:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-xc/e%d", cfg.k,
                      cfg.n, cfg.expressGap);
        break;
      case TopologyKind::Dragonfly:
        std::snprintf(topo, sizeof topo, "dfly(%d,%d)", cfg.dfRouters,
                      cfg.dfGlobal);
        break;
      default:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-cube", cfg.k, cfg.n);
        break;
    }
    char buf[112];
    std::snprintf(buf, sizeof buf,
                  "%-4s %-13s K=%d load=%.2f fx%.1f%s%s",
                  protocolName(cfg.protocol), topo, cfg.scoutK, cfg.load,
                  fx, cfg.tailAck ? " TAck" : "",
                  cfg.hardwareAcks ? " HWAck" : "");
    std::string out = buf;
    if (!workload.empty())
        out += " [" + workload + "]";
    return out;
}

/**
 * Protocol and topology coverage is the point here: every flow-control
 * mechanism the paper configures (Duato baseline, circuit setup,
 * scouting at each K, two-phase with and without scouting) gets fuzzed
 * against the same fault timelines, on the paper's own topologies
 * (Section 6 evaluates 16-ary 2-cubes; Section 5.0 walks a 3-cube).
 */
std::vector<Cell>
buildGrid(const SimConfig &base)
{
    struct ProtoCell
    {
        Protocol proto;
        int scoutK;
    };
    const ProtoCell protos[] = {
        {Protocol::Duato, 0},    {Protocol::Pcs, 0},
        {Protocol::Scouting, 1}, {Protocol::Scouting, 2},
        {Protocol::Scouting, 3}, {Protocol::Scouting, 4},
        {Protocol::Scouting, 5}, {Protocol::TwoPhase, 0},
        {Protocol::TwoPhase, 3},
    };
    // A k-ary n-cube cell over the base config.
    const auto cube = [&base](const ProtoCell &p, double load, double fx,
                              int k, int n) {
        Cell c{base, fx};
        c.cfg.protocol = p.proto;
        c.cfg.scoutK = p.scoutK;
        c.cfg.load = load;
        c.cfg.k = k;
        c.cfg.n = n;
        return c;
    };

    // Block 0: the original 8-ary 2-cube grid.
    std::vector<std::vector<Cell>> blocks(1);
    for (const ProtoCell &p : protos)
        for (double load : {0.05, 0.15})
            for (double fx : {1.0, 2.0})
                blocks[0].push_back(cube(p, load, fx, 8, 2));

    // Blocks 1-4: every protocol on one more cube each.
    const struct
    {
        double load, fx;
        int k, n;
    } cubes[] = {
        // binary 3-cube (the n=3 hypercube of Section 5.0 — 8 nodes,
        // so faults bite hard)
        {0.10, 1.0, 2, 3},
        // 4-ary 3-cube (64 nodes, three dimensions of adaptivity)
        {0.15, 2.0, 4, 3},
        // 16-ary 2-cube (the Section 6 evaluation topology) at a higher
        // injection load
        {0.25, 2.0, 16, 2},
        // high load on the base torus — saturation transients
        {0.30, 1.0, 8, 2},
    };
    for (const auto &c : cubes) {
        blocks.emplace_back();
        for (const ProtoCell &p : protos)
            blocks.back().push_back(cube(p, c.load, c.fx, c.k, c.n));
    }

    // Block 5: ack-configuration cells — tail acks and hardware ack
    // signalling change teardown timing, the raw material of kill
    // races.
    blocks.emplace_back();
    const ProtoCell ackProtos[] = {
        {Protocol::Duato, 0},
        {Protocol::Pcs, 0},
        {Protocol::Scouting, 3},
        {Protocol::TwoPhase, 3},
    };
    for (const ProtoCell &p : ackProtos) {
        Cell tack = cube(p, 0.15, 2.0, 8, 2);
        tack.cfg.tailAck = true;
        blocks.back().push_back(tack);
        Cell hw = cube(p, 0.15, 2.0, 8, 2);
        hw.cfg.hardwareAcks = true;
        blocks.back().push_back(hw);
    }

    // Block 6: workload-library cells — bursty on-off injection,
    // multi-class permutation mixes with a hotspot background, and
    // closed-loop request-reply traffic, all on the base torus. The
    // rest of the grid leaves the traffic layer at open-loop uniform;
    // these cells fuzz the injector's burst machines, priority
    // arbitration, and reply dependencies against the same fault
    // timelines.
    blocks.emplace_back();
    struct WorkloadCell
    {
        const char *name;
        const char *classes;
    };
    const WorkloadCell workloads[] = {
        {"bursty", "pattern=uniform,load=0.15,burst=8,duty=0.25"},
        {"transpose+hot", "pattern=transpose,load=0.10,prio=1;"
                          "pattern=uniform,load=0.05,hotspot=0.1,"
                          "hotspots=4"},
        {"closed-loop", "pattern=uniform,load=0.10,outstanding=2,"
                        "replylen=4"},
        {"bursty-tornado", "pattern=tornado,load=0.12,burst=16,"
                           "duty=0.5"},
    };
    for (const WorkloadCell &w : workloads) {
        for (const ProtoCell &p : ackProtos) {
            Cell cell = cube(p, 0.15, 2.0, 8, 2);
            cell.workload = w.name;
            std::string err;
            if (!parseTrafficClasses(w.classes, &cell.cfg.trafficClasses,
                                     &err))
                tpnet_panic("bad grid workload spec '", w.classes,
                            "': ", err);
            blocks.back().push_back(cell);
        }
    }

    // Blocks 7-9: every protocol on the other topology families, all
    // 8-ary 2-D where they have a radix:
    //  - the mesh: no wraparound channels, boundary-truncated escape
    //    routing (a single dateline class suffices, but the grid keeps
    //    the configured default);
    //  - the express cube with stride-4 express channels: adaptive hops
    //    cross datelines in stride-length jumps while the escape
    //    subnetwork stays the local-channel e-cube;
    //  - the dragonfly with 4-router groups and 2 global channels per
    //    router (9 groups, 36 nodes): hierarchical escape routing with
    //    destination-group VC classes instead of datelines.
    for (TopologyKind topo : {TopologyKind::Mesh, TopologyKind::Express,
                              TopologyKind::Dragonfly}) {
        blocks.emplace_back();
        for (const ProtoCell &p : protos) {
            Cell cell = cube(p, 0.15, 2.0, 8, 2);
            cell.cfg.topology = topo;
            if (topo == TopologyKind::Express)
                cell.cfg.expressGap = 4;
            if (topo == TopologyKind::Dragonfly) {
                cell.cfg.dfRouters = 4;
                cell.cfg.dfGlobal = 2;
            }
            blocks.back().push_back(cell);
        }
    }

    // Block 10: Two-Phase with tail acks on 2-cubes of both sizes —
    // held paths, message acks and source retransmission racing the
    // kill walks of every fault class, with and without scouting.
    // Block 5 already holds the K=3, load 0.15, fx2, 8-ary cell.
    blocks.emplace_back();
    for (int k : {8, 4})
        for (double load : {0.05, 0.15})
            for (int scoutK : {0, 3})
                for (double fx : {1.0, 2.0}) {
                    if (k == 8 && load == 0.15 && scoutK == 3 && fx == 2.0)
                        continue;
                    Cell cell = cube({Protocol::TwoPhase, scoutK}, load,
                                     fx, k, 2);
                    cell.cfg.tailAck = true;
                    blocks.back().push_back(cell);
                }

    // Interleave the blocks round-robin so consecutive seeds sample
    // every topology.
    std::vector<Cell> grid;
    std::size_t idx = 0;
    for (bool any = true; any; ++idx) {
        any = false;
        for (const auto &block : blocks) {
            if (idx < block.size()) {
                grid.push_back(block[idx]);
                any = true;
            }
        }
    }
    return grid;
}

/** Everything argv sets on top of a grid cell. */
struct Overrides
{
    SimConfigOptions sim;
    Cycle inject = 8000;
    Cycle drain = 200000;
    double faultScale = 1.0;
    std::optional<int> nodeKills;
    std::optional<int> linkKills;
    std::optional<int> intermittents;
    std::vector<FaultEvent> scripted;  ///< empty: randomized timeline
    bool skipKillBug = false;
};

/**
 * Exit 2 unless every pinned event of @p spec fits its topology: a
 * pinned victim is one of its nodes; a node kill or an open victim
 * takes port -1, a pinned link event one of the node's ports.
 */
void
checkPinnedEvents(const CampaignSpec &spec)
{
    spec.cfg.validate();
    const auto topo = makeTopology(spec.cfg);
    for (const FaultEvent &ev : spec.scriptedFaults) {
        const bool portless =
            ev.node == invalidNode || ev.kind == FaultKind::NodeKill;
        if (ev.node < topo->nodes() &&
            (portless ? ev.port == -1
                      : ev.port >= 0 && ev.port < topo->radix()))
            continue;
        std::fprintf(stderr,
                     "error: --fault-events event %s does not fit the %s "
                     "of campaign %llu: nodes 0..%d or -1 (drawn), ports "
                     "0..%d for a pinned link event, else -1\n",
                     formatFaultEvents({ev}).c_str(), topo->name(),
                     static_cast<unsigned long long>(spec.seed),
                     topo->nodes() - 1, topo->radix() - 1);
        std::exit(2);
    }
}

/**
 * The campaign of @p seed on @p cell with the options @p o on top, at
 * fault-intensity multiplier @p fault_scale. A pinned event that does
 * not fit the campaign's topology exits 2.
 */
CampaignSpec
buildSpec(const Cell &cell, std::uint64_t seed, const Overrides &o,
          double fault_scale)
{
    CampaignSpec spec;
    spec.cfg = cell.cfg;
    o.sim.apply(&spec.cfg);
    if (o.sim.given(&SimConfig::topology)) {
        // A topology override re-bases the whole grid, including
        // workload cells whose patterns are defined on cube
        // coordinates or node-index bits. Coerce those to uniform
        // (keeping load, bursts, priorities, and closed-loop settings)
        // rather than dying in validate(); an explicit --pattern or
        // --classes is kept and still rejects loudly.
        const bool cube = spec.cfg.topology != TopologyKind::Dragonfly;
        const int nn = spec.cfg.nodes();
        const bool pow2 = (nn & (nn - 1)) == 0;
        const auto unsupported = [&](TrafficPattern p) {
            if (!cube)
                return p != TrafficPattern::Uniform;
            return !pow2 && (p == TrafficPattern::BitReversal ||
                             p == TrafficPattern::Shuffle);
        };
        if (!o.sim.given(&SimConfig::pattern) && unsupported(spec.cfg.pattern))
            spec.cfg.pattern = TrafficPattern::Uniform;
        if (!o.sim.given(&SimConfig::trafficClasses)) {
            for (TrafficClassConfig &tc : spec.cfg.trafficClasses)
                if (unsupported(tc.pattern))
                    tc.pattern = TrafficPattern::Uniform;
        }
    }
    spec.seed = seed;
    spec.injectCycles = o.inject;
    spec.drainCycles = o.drain;
    spec.verifyCwg = true;
    spec.injectSkipKillBug = o.skipKillBug;

    const double fx = fault_scale * cell.faultScale;
    spec.faults.horizon = o.inject;
    spec.faults.earliest = o.inject / 100;
    spec.faults.nodeKills =
        o.nodeKills.value_or(static_cast<int>(std::lround(2.0 * fx)));
    spec.faults.linkKills =
        o.linkKills.value_or(static_cast<int>(std::lround(2.0 * fx)));
    spec.faults.intermittents =
        o.intermittents.value_or(static_cast<int>(std::lround(3.0 * fx)));
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    spec.scriptedFaults = o.scripted;
    if (!o.scripted.empty())
        checkPinnedEvents(spec);
    return spec;
}

/**
 * The grid's base config before any option: the cells --replay-seed
 * rebuilds, against which a replay line spells its options.
 */
SimConfig
gridBase()
{
    SimConfig base;
    base.maxRetries = 6;
    return base;
}

/** @p word, double-quoted if the shell would split or expand it. */
std::string
shellWord(const std::string &word)
{
    const bool plain =
        word.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                               "abcdefghijklmnopqrstuvwxyz"
                               "0123456789-_.,:=+/") == std::string::npos;
    return plain ? word : "\"" + word + "\"";
}

/**
 * One-line replay of @p spec: the campaign parts, and every simulator
 * option on which spec.cfg differs from @p cell, the pristine grid cell
 * that --replay-seed rebuilds, so the replay runs exactly this spec. A
 * pinned fault timeline rides along as --fault-events.
 */
std::string
replayCommand(const CampaignSpec &spec, const SimConfig &cell)
{
    std::ostringstream os;
    os << "tpnet_verify --replay-seed " << spec.seed;
    for (const std::string &word : formatSimConfigOptions(spec.cfg, cell))
        os << ' ' << shellWord(word);
    if (spec.injectSkipKillBug)
        os << " --hook-skip-kills";
    os << " --inject " << spec.injectCycles;
    if (!spec.scriptedFaults.empty()) {
        os << " --fault-events \""
           << formatFaultEvents(spec.scriptedFaults) << "\"";
    } else {
        os << " --node-kills " << spec.faults.nodeKills
           << " --link-kills " << spec.faults.linkKills
           << " --intermittents " << spec.faults.intermittents;
    }
    return os.str();
}

/** Totals over a set of campaigns (a sweep, or a comparison cell). */
struct Totals
{
    int failures = 0;
    std::uint64_t cwgCycles = 0;
    std::uint64_t cwgBenign = 0;
    std::uint64_t cwgWarnings = 0;
    std::uint64_t violations = 0;
    Counters counters;  ///< exact sum (Counters::merge)

    void
    fold(const CampaignResult &r)
    {
        if (!r.passed)
            ++failures;
        cwgCycles += r.cwgCycles;
        cwgBenign += r.cwgBenign;
        cwgWarnings += r.cwgWarnings;
        violations += r.violations.size();
        counters.merge(r.counters);
    }
};

/**
 * Print up to @p cap of @p lines as "    <tag> <line>", then how many
 * more there are.
 */
void
printCapped(const char *tag, const std::vector<std::string> &lines,
            std::size_t cap)
{
    const std::size_t show = std::min(cap, lines.size());
    for (std::size_t j = 0; j < show; ++j)
        std::printf("    %s %s\n", tag, lines[j].c_str());
    if (show < lines.size()) {
        std::printf("    %s ... %zu more (--verbose for all)\n", tag,
                    lines.size() - show);
    }
}

/** Checkpoint/restore options (replay mode only). */
struct CheckpointCli
{
    std::uint64_t every = 0;  ///< --checkpoint-every N
    std::string path;         ///< --checkpoint FILE
    std::string restore;      ///< --restore FILE
};

void
addCheckpointOptions(OptionParser &parser, CheckpointCli *c)
{
    parser.addString("checkpoint",
                     "replay only: write checkpoints of the replayed "
                     "campaign to this file (atomic overwrite; the "
                     "newest complete checkpoint survives a kill)",
                     &c->path);
    parser.addNumber("checkpoint-every",
                     "replay only: checkpoint cadence in cycles "
                     "(requires --checkpoint)",
                     &c->every);
    parser.addString("restore",
                     "replay only: resume the replayed campaign from "
                     "this checkpoint file; the finished run is "
                     "bit-identical to a straight-through replay",
                     &c->restore);
}

/** Any checkpoint option present (arms the trace digest tee too). */
bool
checkpointArmed(const CheckpointCli &c)
{
    return c.every > 0 || !c.path.empty() || !c.restore.empty();
}

bool
validateCheckpointCli(const CheckpointCli &c, bool replay,
                      std::string *error)
{
    if (!checkpointArmed(c))
        return true;
    if (!replay) {
        *error = "--checkpoint/--checkpoint-every/--restore need "
                 "--replay-seed (they act on a single campaign)";
        return false;
    }
    if (c.every > 0 && c.path.empty()) {
        *error = "--checkpoint-every needs --checkpoint FILE";
        return false;
    }
    return true;
}

/**
 * Print the restore/checkpoint/digest report for a finished replay.
 * Goes to stdout as '#' comment lines, never into --json, so a
 * restored run writes the same document as a straight-through one.
 */
void
printCheckpointReport(const CheckpointCli &c, const CampaignResult &r)
{
    if (r.restored) {
        std::printf("# restore: resumed at cycle %llu from %s\n",
                    static_cast<unsigned long long>(r.restoredAt),
                    c.restore.c_str());
    }
    if (r.checkpointsWritten > 0) {
        std::printf("# checkpoint: wrote %llu checkpoint(s) to %s "
                    "(every %llu cycles)\n",
                    static_cast<unsigned long long>(
                        r.checkpointsWritten),
                    c.path.c_str(),
                    static_cast<unsigned long long>(c.every));
    }
    if (!r.checkpointError.empty()) {
        std::printf("# checkpoint ERROR: %s\n",
                    r.checkpointError.c_str());
    }
    std::printf("# tail digest %s (from cycle %llu), state digest %s\n",
                hex64(r.tailDigest).c_str(),
                static_cast<unsigned long long>(r.tailDigestFrom),
                hex64(r.stateDigest).c_str());
}

/**
 * The headline experiment: avoidance (reserved escape bandwidth,
 * Theorem 3 contract verified online) vs recovery (escape pool freed,
 * knots detected and healed) over the full grid, swept across a fault-
 * intensity axis — repeated for each entry of a workload axis (legacy
 * open-loop uniform, bursty on-off uniform, and a two-class transpose
 * mix), so flow-control modes are compared under permutation and
 * bursty traffic, not just Poisson uniform. Each (workload, fx, mode)
 * cell runs the same seeds, so the fault timelines are shared between
 * the columns.
 */
int
runComparison(const SimConfig &base, const std::vector<Cell> &grid,
              int campaigns, int jobs, const Overrides &o,
              const std::string &json_path)
{
    const double axis[] = {0.5, 1.0, 2.0, 4.0};
    struct WorkloadAxis
    {
        const char *name;
        const char *classes;  ///< "" = the grid cell's own workload
    };
    const WorkloadAxis workloads[] = {
        {"uniform", ""},
        {"bursty", "pattern=uniform,load=0.15,burst=8,duty=0.25"},
        {"transpose", "pattern=transpose,load=0.10,prio=1;"
                      "pattern=uniform,load=0.05"},
    };

    std::printf("# avoidance vs recovery: %d campaign(s) per cell over "
                "the %zu-cell grid, fault-intensity axis x{0.5, 1, 2, "
                "4}, workload axis x{uniform, bursty, transpose}, "
                "victim policy %s\n",
                campaigns, grid.size(),
                victimPolicyName(base.victimPolicy));
    std::printf("# %-9s %-4s %-10s %5s %5s %7s %8s %8s %5s %10s %8s "
                "%7s %9s\n",
                "workload", "fx", "mode", "fail", "viol", "knots",
                "victims", "retx", "esc", "delivered", "undeliv",
                "lost", "heal_lat");

    std::vector<CampaignResult> all_results;
    int failures = 0;
    for (const WorkloadAxis &w : workloads) {
    for (double fx : axis) {
        for (int mode = 0; mode < 2; ++mode) {
            const bool recovery = mode == 1;
            std::vector<CampaignSpec> specs;
            specs.reserve(static_cast<std::size_t>(campaigns));
            for (int i = 0; i < campaigns; ++i) {
                const std::uint64_t s =
                    base.seed + static_cast<std::uint64_t>(i);
                CampaignSpec spec =
                    buildSpec(grid[s % grid.size()], s, o, fx);
                if (w.classes[0] != '\0') {
                    std::string err;
                    if (!parseTrafficClasses(w.classes,
                                             &spec.cfg.trafficClasses,
                                             &err))
                        tpnet_panic("bad workload axis spec '", w.classes,
                                    "': ", err);
                }
                spec.cfg.recoveryMode = recovery;
                specs.push_back(spec);
            }
            const std::vector<CampaignResult> results =
                runCampaigns(specs, jobs);
            Totals t;
            for (const CampaignResult &r : results)
                t.fold(r);
            failures += t.failures;
            char lat[32];
            const Counters &c = t.counters;
            if (c.healLatency.count() > 0)
                std::snprintf(lat, sizeof lat, "%9.1f",
                              c.healLatency.mean());
            else
                std::snprintf(lat, sizeof lat, "%9s", "-");
            std::printf("  %-9s %-4.1f %-10s %5d %5llu %7llu %8llu "
                        "%8llu %5llu %10llu %8llu %7llu %s\n",
                        w.name, fx,
                        recovery ? "recovery" : "avoidance",
                        t.failures,
                        static_cast<unsigned long long>(t.violations),
                        static_cast<unsigned long long>(c.knotsDetected),
                        static_cast<unsigned long long>(c.victimsAborted),
                        static_cast<unsigned long long>(c.healRetransmits),
                        static_cast<unsigned long long>(c.healEscalations),
                        static_cast<unsigned long long>(c.delivered),
                        static_cast<unsigned long long>(c.dropped),
                        static_cast<unsigned long long>(c.lost), lat);
            std::fflush(stdout);
            for (const CampaignResult &r : results)
                all_results.push_back(r);
        }
    }
    }

    if (!json_path.empty() &&
        !writeCampaignJson(json_path, "tpnet_verify --compare",
                           all_results)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     json_path.c_str());
        return 2;
    }
    if (failures == 0) {
        std::printf("# comparison clean: no violations in either "
                    "mode\n");
        return 0;
    }
    std::printf("# %d campaign(s) FAILED across the comparison\n",
                failures);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Overrides o;
    int campaigns = 50;
    int jobs = 0;
    std::uint64_t replay_seed = 0;
    bool no_shrink = false;
    bool verbose = false;
    bool compare = false;
    std::string json_path;
    CheckpointCli ckcli;

    OptionParser parser(
        "tpnet_verify",
        "fuzz the online channel-wait-for-graph deadlock analyzer "
        "(knot-based verdicts) across protocol / topology / K / load / "
        "fault grids; failing seeds are shrunk class-level then "
        "event-by-event to a minimal replayable case. Simulator options "
        "apply on top of every grid cell");
    addSimConfigOptions(parser, &o.sim);
    parser.addNumber("campaigns", "number of seeded campaigns (campaign i "
                                  "uses --seed + i)",
                     &campaigns);
    parser.addJobs(&jobs);
    parser.addNumber("max-cycles", "traffic injection window per campaign",
                     &o.inject);
    parser.addNumber("inject",
                     "same as --max-cycles (the spelling replay lines "
                     "use)",
                     &o.inject);
    parser.addNumber("drain", "extra cycles allowed to reach quiescence",
                     &o.drain);
    parser.addNumber("replay-seed",
                     "replay exactly one campaign by its seed",
                     &replay_seed);
    const auto addCount = [&parser](const char *name, const char *help,
                                    std::optional<int> *count) {
        parser.addValue(name, "<int>", help,
                        [count](const std::string &v, std::string *) {
                            int n = 0;
                            if (!parseNumber(v, &n) || n < 0)
                                return false;
                            *count = n;
                            return true;
                        });
    };
    addCount("node-kills", "node kill count (default: the cell's)",
             &o.nodeKills);
    addCount("link-kills", "link kill count (default: the cell's)",
             &o.linkKills);
    addCount("intermittents",
             "intermittent fault count (default: the cell's)",
             &o.intermittents);
    parser.addValue("fault-events", "<events>",
                    "pinned fault timeline (at:kind:node:port:down,... "
                    "with kind n|l|i); replaces the randomized schedule",
                    [&o](const std::string &v, std::string *why) {
                        *why = "expected at:kind:node:port:down,... with "
                               "kind n|l|i";
                        return parseFaultEvents(v, &o.scripted);
                    });
    parser.addNumber("fault-scale",
                     "global multiplier on the per-campaign fault mix",
                     &o.faultScale);
    parser.addFlag("compare",
                   "headline experiment: avoidance vs recovery over "
                   "the grid across a fault-intensity axis",
                   &compare);
    parser.addString("json",
                     "write per-campaign structured results (CWG "
                     "counts, warnings, recovery stats) to this file",
                     &json_path);
    parser.addFlag("no-shrink", "report failures without minimizing",
                   &no_shrink);
    parser.addFlag("verbose", "print every violation in full", &verbose);
    parser.addFlag("hook-skip-kills",
                   "TEST HOOK: break fault recovery on purpose to prove "
                   "the oracle detects it (campaigns must FAIL)",
                   &o.skipKillBug);
    addCheckpointOptions(parser, &ckcli);
    parser.parseOrExit(argc, argv);

    // The grid's base: the options apply here too, so base.seed is the
    // first campaign's seed.
    SimConfig base = gridBase();
    o.sim.apply(&base);
    const std::vector<Cell> grid = buildGrid(base);
    const std::vector<Cell> pristineGrid = buildGrid(gridBase());

    std::string error;
    const bool replay = replay_seed != 0;
    if (!validateCheckpointCli(ckcli, replay, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (!replay && campaigns < 1) {
        // A gate that runs zero campaigns passes vacuously; refuse.
        std::fprintf(stderr, "error: --campaigns must be >= 1\n");
        return 2;
    }

    if (compare) {
        if (checkpointArmed(ckcli)) {
            std::fprintf(stderr, "error: checkpoint options cannot be "
                                 "combined with --compare\n");
            return 2;
        }
        return runComparison(base, grid, campaigns, jobs, o, json_path);
    }

    std::vector<CampaignSpec> specs;
    for (int i = 0; i < (replay ? 1 : campaigns); ++i) {
        const std::uint64_t s =
            replay ? replay_seed : base.seed + static_cast<std::uint64_t>(i);
        CampaignSpec spec = buildSpec(grid[s % grid.size()], s, o,
                                      o.faultScale);
        spec.checkpointEvery = ckcli.every;  // replay only (validated)
        spec.checkpointPath = ckcli.path;
        spec.restorePath = ckcli.restore;
        specs.push_back(spec);
    }

    std::printf("# tpnet_verify: %zu campaign(s), grid of %zu cells "
                "(4/8/16-ary 2-cubes, binary/4-ary 3-cubes, mesh, "
                "express cube, dragonfly, ack variants, workload "
                "cells, TP tail-ack), inject %llu + drain %llu "
                "cycles, CWG armed%s\n",
                specs.size(), grid.size(),
                static_cast<unsigned long long>(o.inject),
                static_cast<unsigned long long>(o.drain),
                base.recoveryMode ? ", RECOVERY mode" : "");

    const std::vector<CampaignResult> results =
        runCampaigns(specs, jobs);

    // Campaigns whose classes argv gave are labelled by the option.
    const std::string classesLabel =
        o.sim.given(&SimConfig::trafficClasses)
            ? std::string("--") + optionOf(&SimConfig::trafficClasses)
            : "";
    Totals t;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CampaignResult &r = results[i];
        const Cell &cell = grid[specs[i].seed % grid.size()];
        t.fold(r);
        std::printf(
            "%-40s %s\n",
            describe(specs[i], o.faultScale * cell.faultScale,
                     classesLabel.empty() ? cell.workload : classesLabel)
                .c_str(),
            r.summary().c_str());
        if (verbose) {
            for (const std::string &w : r.warnings)
                std::printf("    ~ %s\n", w.c_str());
        }
        if (r.passed) {
            std::fflush(stdout);
            continue;
        }
        printCapped("!", r.violations, verbose ? r.violations.size() : 5);
        printCapped("live", r.liveDump, verbose ? r.liveDump.size() : 10);
        const SimConfig &pristine =
            pristineGrid[specs[i].seed % grid.size()].cfg;
        if (!no_shrink) {
            const ShrinkOutcome shrunk =
                shrinkCampaign(specs[i], runCampaign);
            std::printf("    shrunk %d class step(s) + %d event "
                        "step(s)%s -> minimal replay:\n"
                        "      %s\n",
                        shrunk.classSteps, shrunk.eventSteps,
                        shrunk.eventsPinned ? ""
                                            : " (timeline not pinned)",
                        replayCommand(shrunk.spec, pristine).c_str());
        } else if (!replay) {
            std::printf("    replay: %s\n",
                        replayCommand(specs[i], pristine).c_str());
        }
        std::fflush(stdout);
    }

    std::printf("# cwg: %llu wait cycle(s) observed across all "
                "campaigns, %llu benign, %llu persistent warning(s)\n",
                static_cast<unsigned long long>(t.cwgCycles),
                static_cast<unsigned long long>(t.cwgBenign),
                static_cast<unsigned long long>(t.cwgWarnings));
    if (base.recoveryMode) {
        const Counters &c = t.counters;
        std::printf("# recovery: %llu knot(s) detected, %llu victim "
                    "abort(s), %llu retransmission(s), %llu "
                    "escalation(s)\n",
                    static_cast<unsigned long long>(c.knotsDetected),
                    static_cast<unsigned long long>(c.victimsAborted),
                    static_cast<unsigned long long>(c.healRetransmits),
                    static_cast<unsigned long long>(c.healEscalations));
    }
    if (replay && checkpointArmed(ckcli))
        printCheckpointReport(ckcli, results[0]);
    if (!json_path.empty() &&
        !writeCampaignJson(json_path, "tpnet_verify", results)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     json_path.c_str());
        return 2;
    }
    if (t.failures == 0) {
        std::printf("# all %zu campaign(s) clean\n", specs.size());
        return 0;
    }
    std::printf("# %d of %zu campaign(s) FAILED\n", t.failures,
                specs.size());
    return 1;
}
