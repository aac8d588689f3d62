/**
 * @file
 * Ablation: hardware acknowledgment signalling (the paper's conclusion).
 *
 * "We are currently evaluating an implementation that adds a few
 * control signals to the physical channel ... By implementing
 * acknowledgment flits in hardware, we hope to extend the superior low
 * load performance of TP to significantly higher loads."
 *
 * This bench runs that experiment: conservative TP (K = 3, the
 * configuration whose acknowledgment traffic hurts in Fig. 15) with the
 * acknowledgments multiplexed on the shared control lane (the paper's
 * implementation) vs on dedicated signals (SimConfig::hardwareAcks).
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "ablation_hw_acks — dedicated acknowledgment signals",
                     "Section 7.0 (conclusions / future work)");

    const auto loads = bench::loadGrid();

    for (bool hw : {false, true}) {
        for (int faults : {10, 20}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.scoutK = 3;  // conservative: ack traffic matters
            cfg.staticNodeFaults = faults;
            cfg.hardwareAcks = hw;
            std::string label = hw ? "hw acks" : "shared lane";
            label += " (" + std::to_string(faults) + "F, K=3)";
            h.add(loadSeries(cfg, label, loads), "offered");
        }
    }

    std::vector<Series> all;
    for (const bench::LabelledSeries &ls : h.run())
        all.push_back(ls.series);
    if (writeSeriesCsv("ablation_hw_acks.csv", all, "offered"))
        std::printf("# wrote ablation_hw_acks.csv\n");
    return h.finish();
}
