/**
 * @file
 * Side-by-side comparison of every routing protocol in the library at
 * one operating point — the quick version of the paper's evaluation.
 * For each protocol: zero-load latency (vs the Section 2.2 analytic
 * model), latency/throughput at a moderate load, and behavior with a
 * few failed nodes (where the protocol supports them).
 */

#include <cstdio>

#include "core/tpnet.hpp"

namespace {

using namespace tpnet;

SimConfig
base(Protocol p)
{
    SimConfig cfg;
    cfg.k = 16;
    cfg.n = 2;
    cfg.protocol = p;
    cfg.msgLength = 32;
    cfg.warmup = 1000;
    cfg.measure = 4000;
    cfg.seed = 11;
    if (p == Protocol::Scouting)
        cfg.scoutK = 3;
    return cfg;
}

} // namespace

int
main()
{
    using namespace tpnet;

    std::printf("analytic zero-load anchors for l = 8, L = 32:\n");
    std::printf("  t_WR = %d   t_SR(K=3) = %d   t_PCS = %d\n\n",
                analytic::wrLatency(8, 32),
                analytic::scoutingLatency(8, 32, 3),
                analytic::pcsLatency(8, 32));

    std::printf("%-6s %-28s %-28s\n", "", "load 0.10 (lat / thr)",
                "load 0.10, 3 faults (lat / thr / del%)");
    const Protocol protocols[] = {Protocol::DimOrder, Protocol::Duato,
                                  Protocol::Scouting, Protocol::Pcs,
                                  Protocol::MBm, Protocol::TwoPhase};
    for (Protocol p : protocols) {
        SimConfig cfg = base(p);
        cfg.load = 0.10;
        const RunResult clean = Simulator(cfg).run();

        std::printf("%-6s %7.1f / %.3f", protocolName(p),
                    clean.avgLatency, clean.throughput);

        const bool fault_tolerant =
            p == Protocol::MBm || p == Protocol::TwoPhase;
        if (fault_tolerant) {
            SimConfig faulty = cfg;
            faulty.staticNodeFaults = 3;
            const RunResult r = Simulator(faulty).run();
            std::printf("        %7.1f / %.3f / %.1f%%\n", r.avgLatency,
                        r.throughput, r.deliveredFraction * 100.0);
        } else {
            std::printf("        (not fault tolerant)\n");
        }
    }

    std::printf("\nreplication methodology demo (Section 6.0):\n");
    SimConfig cfg = base(Protocol::TwoPhase);
    cfg.load = 0.2;
    cfg.measure = 2500;
    const ReplicatedResult r = runReplicated(cfg, SweepOptions{2, 8, 0.05});
    std::printf("  %zu replications, mean latency %.1f +- %.1f cycles "
                "(95%% CI), converged=%s\n",
                r.replications, r.mean.avgLatency, r.latencyHw95,
                r.converged ? "yes" : "no");
    return 0;
}
