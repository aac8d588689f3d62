/**
 * @file
 * Figure 12: latency vs throughput of TP, DP, and MB-m in the
 * fault-free 16-ary 2-cube.
 *
 * Expected shape (Section 6.1): TP closely follows DP (an efficient WR
 * protocol) because with SR = 0 no acknowledgments are sent and K = 0
 * in every virtual channel; MB-m pays the extra control flits and the
 * decoupled path setup of PCS — higher base latency (~3l vs l) and a
 * clearly lower saturation throughput.
 */

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "fig12_faultfree — TP vs DP vs MB-m, fault-free",
                     "Fig. 12 (Section 6.1)");

    const auto loads = bench::loadGrid();

    for (Protocol p : {Protocol::TwoPhase, Protocol::Duato,
                       Protocol::MBm}) {
        const SimConfig cfg = bench::paperConfig(p);
        h.add(loadSeries(cfg, protocolName(p), loads), "offered");
    }

    // The CWG deadlock analyzer armed on the TP sweep: quantifies the
    // verification overhead (the tracker is read-only, so throughput
    // and latency must track the plain TP series; the delta is pure
    // bookkeeping cost).
    {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.verifyCwg = true;
        h.add(loadSeries(cfg, "TP+cwg", loads), "offered");
    }

    // TP in knot-triggered recovery mode: the escape VCs join the
    // adaptive pool and deadlock is healed (detected + victim abort)
    // instead of avoided. Fault-free, knots essentially never form, so
    // this series prices the mode itself: the freed escape bandwidth
    // plus the always-on tracker. Its points carry the "recovery"
    // JSON object through the report schema.
    {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.recoveryMode = true;
        h.add(loadSeries(cfg, "TP+recovery", loads), "offered");
    }

    h.run();
    // Zero-load sanity anchors (Section 2.2): average minimal distance
    // of uniform traffic on the 16-ary 2-cube is 8 links.
    std::printf("# zero-load anchors: t_WR(8,32)=%d  t_PCS(8,32)=%d\n",
                analytic::wrLatency(8, 32), analytic::pcsLatency(8, 32));
    return h.finish();
}
