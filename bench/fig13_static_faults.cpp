/**
 * @file
 * Figure 13: latency vs throughput of TP and MB-m with 1, 10, and 20
 * failed nodes randomly placed in the 16-ary 2-cube.
 *
 * Expected shape (Section 6.2): both protocols degrade as faults grow;
 * TP keeps lower latency than MB-m at a given load for few faults, but
 * TP's saturation throughput collapses at 20 faults (the paper reports
 * ~0.05 flits/node/cycle, ~17% of the fault-free 0.32) while MB-m
 * degrades gracefully.
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "fig13_static_faults — TP vs MB-m with node faults",
                     "Fig. 13 (Section 6.2, static faults)");

    const auto loads = bench::loadGrid();

    for (Protocol p : {Protocol::TwoPhase, Protocol::MBm}) {
        for (int faults : {1, 10, 20}) {
            SimConfig cfg = bench::paperConfig(p);
            cfg.staticNodeFaults = faults;
            std::string label = protocolName(p);
            label += " (" + std::to_string(faults) + "F)";
            h.add(loadSeries(cfg, label, loads), "offered");
        }
    }
    return h.finish();
}
