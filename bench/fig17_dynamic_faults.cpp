/**
 * @file
 * Figures 16/17: dynamic fault tolerance. TP with and without
 * tail-acknowledgment (reliable delivery + retransmission), with f
 * faults inserted dynamically compared against f/2 static faults (the
 * paper's averaging argument: f/2 is the mean number of dynamic faults
 * a message generation would have seen).
 *
 * Expected shape (Section 6.2): at low loads the recovery machinery
 * costs little; as injection rates rise, the kill/ack traffic and the
 * held paths of the TAck variant throttle injection, so "with TAck"
 * saturates at a lower load with higher latencies — yet its feasible
 * operating range extends almost to saturation.
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(
        argc, argv,
        "fig17_dynamic_faults — recovery and reliable delivery",
        "Fig. 17 (Section 6.2, dynamic faults; kill flits of Fig. 16)");

    const auto loads = bench::loadGrid();

    for (bool tack : {false, true}) {
        for (int faults : {1, 10, 20}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.dynamicNodeFaults = faults;
            cfg.tailAck = tack;
            std::string label =
                tack ? "with TAck" : "w/o TAck";
            label += " (" + std::to_string(faults) + "F dyn)";
            h.add(loadSeries(cfg, label, loads), "offered");
        }
    }

    // The paper's comparison anchor: f dynamic vs f/2 static.
    for (int faults : {10, 20}) {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.staticNodeFaults = faults / 2;
        std::string label =
            "static anchor (" + std::to_string(faults / 2) + "F)";
        h.add(loadSeries(cfg, label, loads), "offered");
    }
    return h.finish();
}
