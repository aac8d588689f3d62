/** @file The sweep plan's core contract: for any --jobs value, sweeps
 *  produce bit-identical series, because every (point, replication)
 *  task is a shared-nothing Simulator whose seed depends only on the
 *  configuration and the replication index, and every point folds its
 *  replications in replication order. */

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

SimConfig
sweepConfig()
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 16;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.drain = 20000;
    cfg.watchdog = 0;
    cfg.seed = 424242;
    return cfg;
}

/** Every scalar must match to the last bit — hence ==, not NEAR. */
void
expectIdentical(const ReplicatedResult &a, const ReplicatedResult &b)
{
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.mean.throughput, b.mean.throughput);
    EXPECT_EQ(a.mean.avgLatency, b.mean.avgLatency);
    EXPECT_EQ(a.mean.p95Latency, b.mean.p95Latency);
    EXPECT_EQ(a.mean.deliveredFraction, b.mean.deliveredFraction);
    EXPECT_EQ(a.mean.undeliverable, b.mean.undeliverable);
    EXPECT_EQ(a.latencyHw95, b.latencyHw95);
    EXPECT_EQ(a.throughputHw95, b.throughputHw95);
    EXPECT_EQ(a.mean.counters.delivered, b.mean.counters.delivered);
    EXPECT_EQ(a.mean.counters.dataCrossings,
              b.mean.counters.dataCrossings);
    EXPECT_EQ(a.mean.counters.ctrlCrossings,
              b.mean.counters.ctrlCrossings);
}

void
expectIdentical(const Series &a, const Series &b)
{
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].x, b.points[i].x);
        expectIdentical(a.points[i].result, b.points[i].result);
    }
}

TEST(ParallelSweep, LoadSweepBitIdenticalAcrossJobs)
{
    const std::vector<double> loads{0.05, 0.15, 0.25};
    SweepOptions seq;
    seq.minReps = 1;
    seq.maxReps = 2;
    seq.jobs = 1;
    SweepOptions par = seq;
    par.jobs = 8;

    const Series a = loadSweep(sweepConfig(), "TP", loads, seq);
    const Series b = loadSweep(sweepConfig(), "TP", loads, par);
    expectIdentical(a, b);
}

TEST(ParallelSweep, FaultSweepBitIdenticalAcrossJobs)
{
    const std::vector<int> faults{0, 2, 4};
    SimConfig cfg = sweepConfig();
    cfg.load = 0.1;
    SweepOptions seq;
    seq.minReps = 1;
    seq.maxReps = 1;
    seq.jobs = 1;
    SweepOptions par = seq;
    par.jobs = 8;

    expectIdentical(faultSweep(cfg, "TP", faults, seq),
                    faultSweep(cfg, "TP", faults, par));
}

TEST(ParallelSweep, TwoSeriesPlanFoldsLikeTheLazyLoop)
{
    // A loose CI bound stops the points after 2, 3 or 4 of at most 6
    // replications, so the plan runs several rounds. The pins were
    // recorded with the one-point-at-a-time loop the plan replaced.
    const std::vector<double> loads{0.05, 0.15, 0.25, 0.35};
    SimConfig faulty = sweepConfig();
    faulty.scoutK = 3;
    faulty.staticNodeFaults = 3;
    const std::vector<Series> plan{
        loadSeries(sweepConfig(), "TP", loads),
        loadSeries(faulty, "TP K=3 (3F)", loads)};
    SweepOptions opt;
    opt.minReps = 2;
    opt.maxReps = 6;
    opt.relBound = 0.5;
    opt.jobs = 1;
    PlanTiming seq_timing;
    const std::vector<Series> seq = runPlan(plan, opt, &seq_timing);
    opt.jobs = 8;
    PlanTiming par_timing;
    const std::vector<Series> par = runPlan(plan, opt, &par_timing);

    struct Pin
    {
        std::size_t reps;
        double latency;
        double throughput;
        std::uint64_t generated;
    };
    const Pin pins[2][4] = {
        {{3, 23.198930115142925, 0.048476562500000001, 597},
         {2, 30.275764597684578, 0.14849609375, 1255},
         {3, 38.264359069239383, 0.24521484374999999, 3196},
         {2, 52.124798539373302, 0.33672851562499995, 3059}},
        {{3, 23.737132494016823, 0.046263020833333335, 575},
         {2, 31.062931269736069, 0.14039062499999999, 1203},
         {3, 42.040735191391093, 0.23490885416666668, 3061},
         {4, 87.736876722682325, 0.31666015624999999, 7454}}};
    ASSERT_EQ(seq.size(), 2u);
    ASSERT_EQ(par.size(), 2u);
    std::size_t consumed = 0;
    for (std::size_t s = 0; s < 2; ++s) {
        ASSERT_EQ(seq[s].points.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            const ReplicatedResult &r = seq[s].points[i].result;
            EXPECT_EQ(r.replications, pins[s][i].reps);
            EXPECT_TRUE(r.converged);
            EXPECT_EQ(r.mean.avgLatency, pins[s][i].latency);
            EXPECT_EQ(r.mean.throughput, pins[s][i].throughput);
            EXPECT_EQ(r.mean.counters.generated, pins[s][i].generated);
            consumed += r.replications;
        }
        expectIdentical(seq[s], par[s]);
    }
    // Nothing speculative: every jobs value runs exactly the
    // replications the folds consumed.
    EXPECT_EQ(seq_timing.tasks, consumed);
    EXPECT_EQ(par_timing.tasks, consumed);
}

} // namespace
} // namespace tpnet
