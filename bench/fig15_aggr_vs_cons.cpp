/**
 * @file
 * Figure 15: aggressive (K = 0) vs conservative (K = 3) configurations
 * of the Two-Phase protocol with 1, 10, and 20 failed nodes.
 *
 * Expected shape (Section 6.2): with one fault and low traffic the two
 * configurations coincide; with many faults and high traffic the
 * aggressive version performs considerably better because K = 3 floods
 * the multiplexed control lanes with acknowledgment flits, which
 * dominates the cost of the extra detours the aggressive version
 * builds.
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "fig15_aggr_vs_cons — TP scouting distance ablation",
                     "Fig. 15 (Section 6.2)");

    const auto loads = bench::loadGrid();

    struct Variant
    {
        const char *name;
        int k;
    };
    for (const Variant v : {Variant{"Aggressive K=0", 0},
                            Variant{"Conservative K=3", 3}}) {
        for (int faults : {1, 10, 20}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.scoutK = v.k;
            cfg.staticNodeFaults = faults;
            std::string label = v.name;
            label += " (" + std::to_string(faults) + "F)";
            h.add(loadSeries(cfg, label, loads), "offered");
        }
    }
    return h.finish();
}
