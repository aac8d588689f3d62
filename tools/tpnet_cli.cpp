/**
 * @file
 * tpnet_cli — command-line driver for the simulator.
 *
 * Run any configuration without writing code: pick the protocol,
 * geometry, flow control parameters, fault load, and traffic, then run
 * a single point, a replicated point (the paper's 95%-CI methodology),
 * or an offered-load sweep. `--stats` appends a structural
 * network-statistics report.
 *
 * Examples:
 *   tpnet_cli --protocol TP --load 0.2 --faults 10
 *   tpnet_cli --protocol MB-m --sweep "0.05,0.1,0.15,0.2" --reps 3
 *   tpnet_cli --protocol TP --scout-k 3 --faults 20 --load 0.25 --stats
 *   tpnet_cli --protocol SR --scout-k 3 --k 8 --n 3 --length 16 --dynamic 5
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/run_loop.hpp"
#include "core/tpnet.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/options.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;

    SimConfig cfg;
    SimConfigOptions simopts;
    std::vector<double> loads;
    int reps = 1;
    int jobs = 0;
    bool stats = false;
    bool no_unsafe = false;

    OptionParser parser(
        "tpnet_cli",
        "flit-level simulator of fault-tolerant routing with "
        "configurable flow control (Dao/Duato/Yalamanchili, ISCA'95)");
    addSimConfigOptions(parser, &simopts);
    parser.addNumber("faults", "static node faults", &cfg.staticNodeFaults);
    parser.addNumber("link-faults", "static link faults",
                     &cfg.staticLinkFaults);
    parser.addNumber("dynamic", "dynamic node faults over the run",
                     &cfg.dynamicNodeFaults);
    parser.addNumber("dynamic-links", "dynamic link faults over the run",
                     &cfg.dynamicLinkFaults);
    parser.addNumber("intermittent",
                     "intermittent link faults over the run",
                     &cfg.intermittentFaults);
    parser.addNumber("intermittent-down",
                     "cycles an intermittent link stays down",
                     &cfg.intermittentDownCycles);
    parser.addFlag("no-unsafe", "disable unsafe-channel marking",
                   &no_unsafe);
    parser.addNumber("warmup", "warmup cycles", &cfg.warmup);
    parser.addNumber("measure", "measurement window cycles",
                     &cfg.measure);
    parser.addNumber("reps", "max replications (95% CI rule when > 1)",
                     &reps);
    parser.addValue("sweep", "<loads>", "comma-separated offered loads",
                    [&loads](const std::string &v, std::string *why) {
                        *why = "expected numbers joined by ','";
                        return parseNumbers(v, &loads);
                    });
    parser.addJobs(&jobs);
    parser.addFlag("stats", "print structural network statistics",
                   &stats);
    parser.parseOrExit(argc, argv);

    simopts.apply(&cfg);
    cfg.markUnsafe = !no_unsafe;
    cfg.validate();

    std::printf("# %s\n", cfg.summary().c_str());

    // One plan serves all three modes: a sweep, a replicated point and
    // a single run (one point, one replication).
    const SweepOptions opt{reps > 1 ? 2u : 1u,
                           static_cast<std::size_t>(std::max(reps, 1)),
                           0.05, jobs};
    const bool sweep = !loads.empty();
    if (!sweep)
        loads.push_back(cfg.load);
    const Series s = loadSweep(cfg, protocolName(cfg.protocol), loads, opt);
    if (sweep) {
        printSeries(std::cout, s, "offered");
    } else {
        const ReplicatedResult &r = s.points.front().result;
        std::printf("%s\n%s\n", RunResult::header().c_str(),
                    r.mean.row().c_str());
        if (reps > 1) {
            std::printf("# %zu replications, latency CI95 +-%.2f, "
                        "converged=%s\n",
                        r.replications, r.latencyHw95,
                        r.converged ? "yes" : "no");
        }
    }
    for (const SeriesPoint &pt : s.points) {
        if (pt.result.mean.degenerate) {
            std::fprintf(stderr,
                         "error: degenerate workload at offered load %g: "
                         "traffic armed but 0 messages offered (pattern "
                         "self-maps on this topology?)\n",
                         pt.x);
            return 1;
        }
    }

    if (stats && !sweep) {
        // Re-run a short window on a live network for the snapshot.
        Network net(cfg);
        armFaultProcesses(net);
        Injector inj(net);
        RunLoop(net, inj).run(cfg.warmup + cfg.measure);
        std::printf("\n%s",
                    obs::MetricsRegistry::snapshot(net).report().c_str());
    }
    return 0;
}
