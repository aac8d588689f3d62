/**
 * @file
 * Extension experiment — the paper's "ongoing studies" (Section 6.2):
 *
 * "We also note that TP protocol used in the experiments was designed
 * for 3 faults (a 2 dimensional network). A relatively more
 * conservative version could have been configured and would be expected
 * to produce improved high fault rate performance but some sacrifices
 * in low fault rate performance would have to be made."
 *
 * This bench sweeps the conservatism knobs at a high fault count
 * (20 failed nodes) and at one fault:
 *   - scouting distance K in {0, 1, 3, 5},
 *   - unsafe-channel marking on/off (the paper's aggressive transition
 *     note: "it [is] not necessary marking channels as unsafe"),
 *   - hardware acknowledgment signalling for the K > 0 variants,
 * reporting saturation-side throughput and the low-fault cost. Every
 * row is one series of the bench's sweep plan.
 */

#include "common.hpp"

namespace {

using namespace tpnet;

/**
 * Queue one table row as a one-point series of the plan; @p last closes
 * its block with a blank line.
 */
void
addRow(bench::Harness &h, const std::string &tag, const SimConfig &cfg,
       bool last = false)
{
    const std::string label =
        std::to_string(cfg.staticNodeFaults) + "F " + tag;
    h.add({label, {{cfg.load, cfg, {}}}}, "offered",
          [tag, last](const Series &s) {
              const SeriesPoint &pt = s.points.front();
              const RunResult &r = pt.result.mean;
              std::printf("%-34s faults=%-2d load=%.2f  thr=%.4f  "
                          "lat=%7.1f  del=%5.1f%%  acks=%llu\n",
                          tag.c_str(), pt.cfg.staticNodeFaults,
                          r.offeredLoad, r.throughput, r.avgLatency,
                          r.deliveredFraction * 100.0,
                          static_cast<unsigned long long>(
                              r.counters.posAcks));
              if (last)
                  std::printf("\n");
          });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "ext_conservative_tp — conservatism sweep for TP",
                     "Section 6.2 'subject of ongoing studies'");

    for (int faults : {1, 20}) {
        for (double load : {0.10, 0.25}) {
            for (int k : {0, 1, 3, 5}) {
                SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
                cfg.staticNodeFaults = faults;
                cfg.load = load;
                cfg.scoutK = k;
                std::string tag = "K=" + std::to_string(k);
                addRow(h, tag, cfg);

                if (k > 0) {
                    cfg.hardwareAcks = true;
                    tag += " + hw acks";
                    addRow(h, tag, cfg);
                }
            }
            {
                SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
                cfg.staticNodeFaults = faults;
                cfg.load = load;
                cfg.scoutK = 0;
                cfg.markUnsafe = false;
                addRow(h, "K=0, unsafe marking off", cfg, true);
            }
        }
    }
    return h.finish();
}
