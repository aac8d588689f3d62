/**
 * @file
 * Figure 14: latency and throughput of TP and MB-m as a function of
 * the number of node faults (0..20), at offered loads of 1, 10, 30 and
 * 50 messages/node/5000 cycles (the paper's parenthesized series).
 *
 * Expected shape (Section 6.2): MB-m's latency stays relatively flat in
 * the fault count at low loads; at 0.2+ flits/node/cycle latency rises
 * considerably with faults because the aggregate bandwidth drops while
 * the network sits at saturation. TP's throughput at the highest load
 * falls steeply as faults increase (detour searches and held data
 * dominate), eventually below the conservative protocol.
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "fig14_fault_sweep — latency/throughput vs node faults",
                     "Fig. 14 (Section 6.2)");

    // messages/node/5000 cycles -> data flits/node/cycle (L = 32).
    const int msgs_per_5000[] = {1, 10, 30, 50};
    const std::vector<int> faults =
        bench::fastMode() ? std::vector<int>{0, 5, 10, 20}
                          : std::vector<int>{0, 1, 3, 5, 8, 12, 16, 20};

    for (Protocol p : {Protocol::TwoPhase, Protocol::MBm}) {
        for (int msgs : msgs_per_5000) {
            SimConfig cfg = bench::paperConfig(p);
            cfg.load = static_cast<double>(msgs) * 32.0 / 5000.0;
            std::string label = protocolName(p);
            label += " (" + std::to_string(msgs) + ")";
            h.add(faultSeries(cfg, label, faults), "faults");
        }
    }
    return h.finish();
}
