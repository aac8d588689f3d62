/**
 * @file
 * Edge cases of the statistics primitives the metrics registry leans
 * on: Histogram percentiles on empty/one-sample data, RunningStat merge
 * exactness and associativity (the property ReplicationFold relies on
 * when folding per-replication VcMetrics in arbitrary grouping), and
 * VcMetrics::merge and Counters::merge themselves — including through a
 * real Simulator fold.
 */

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "metrics/collector.hpp"
#include "sim/stats.hpp"

namespace tpnet {
namespace {

TEST(RunningStatEdges, EmptyStatReportsZeros)
{
    const RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatEdges, OneSample)
{
    RunningStat s;
    s.add(-3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), -3.5);
    EXPECT_EQ(s.min(), -3.5);
    EXPECT_EQ(s.max(), -3.5);
    EXPECT_EQ(s.variance(), 0.0);  // unbiased variance needs >= 2
}

TEST(RunningStatEdges, MergeWithEmptyIsIdentityBothWays)
{
    RunningStat filled;
    filled.add(1.0);
    filled.add(2.0);
    filled.add(4.0);

    RunningStat lhs = filled;
    lhs.merge(RunningStat{});  // rhs empty
    EXPECT_EQ(lhs.count(), filled.count());
    EXPECT_EQ(lhs.mean(), filled.mean());
    EXPECT_EQ(lhs.variance(), filled.variance());
    EXPECT_EQ(lhs.min(), filled.min());
    EXPECT_EQ(lhs.max(), filled.max());

    RunningStat empty;
    empty.merge(filled);  // lhs empty
    EXPECT_EQ(empty.count(), filled.count());
    EXPECT_EQ(empty.mean(), filled.mean());
    EXPECT_EQ(empty.variance(), filled.variance());
    EXPECT_EQ(empty.min(), filled.min());
    EXPECT_EQ(empty.max(), filled.max());
}

TEST(RunningStatEdges, MergeEqualsAddingAllSamples)
{
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> dist(-10.0, 10.0);

    RunningStat whole;
    RunningStat a;
    RunningStat b;
    for (int i = 0; i < 1000; ++i) {
        const double x = dist(rng);
        whole.add(x);
        (i % 3 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(RunningStatEdges, MergeIsAssociativeUpToRounding)
{
    std::mt19937_64 rng(23);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    RunningStat a, b, c;
    for (int i = 0; i < 100; ++i)
        a.add(dist(rng));
    for (int i = 0; i < 37; ++i)
        b.add(dist(rng));
    for (int i = 0; i < 211; ++i)
        c.add(dist(rng));

    RunningStat left = a;   // (a + b) + c
    left.merge(b);
    left.merge(c);
    RunningStat bc = b;     // a + (b + c)
    bc.merge(c);
    RunningStat right = a;
    right.merge(bc);

    EXPECT_EQ(left.count(), right.count());
    EXPECT_EQ(left.min(), right.min());
    EXPECT_EQ(left.max(), right.max());
    EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
}

TEST(HistogramEdges, EmptyHistogramPercentileIsZero)
{
    const Histogram h(1.0, 8);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.95), 0.0);
}

TEST(HistogramEdges, OneSamplePercentileFallsInItsBin)
{
    Histogram h(1.0, 8);
    h.add(3.2);
    for (double q : {0.0, 0.5, 0.95, 1.0}) {
        const double v = h.percentile(q);
        EXPECT_GE(v, 3.0) << "q=" << q;
        EXPECT_LE(v, 4.0) << "q=" << q;
    }
}

TEST(HistogramEdges, OverflowSamplesLandInOverflowBin)
{
    Histogram h(1.0, 4);
    h.add(1000.0);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_GE(h.percentile(0.99), 4.0);
}

TEST(HistogramEdges, MergeEqualsAddingAllSamples)
{
    std::mt19937_64 rng(31);
    std::uniform_real_distribution<double> dist(0.0, 12.0);
    Histogram whole(1.0, 8);
    Histogram a(1.0, 8);
    Histogram b(1.0, 8);
    for (int i = 0; i < 500; ++i) {
        const double x = dist(rng);
        whole.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    ASSERT_EQ(a.total(), whole.total());
    for (std::size_t i = 0; i <= a.bins(); ++i)
        EXPECT_EQ(a.binCount(i), whole.binCount(i)) << "bin " << i;
    EXPECT_EQ(a.percentile(0.95), whole.percentile(0.95));
}

TEST(HistogramEdges, MergeWithEmptyKeepsCounts)
{
    Histogram a(2.0, 4);
    a.add(1.0);
    a.add(7.0);
    Histogram empty(2.0, 4);
    a.merge(empty);
    EXPECT_EQ(a.total(), 2u);
    Histogram dst(2.0, 4);
    dst.merge(a);
    EXPECT_EQ(dst.total(), 2u);
}

TEST(HistogramEdges, GeometryMismatchDies)
{
    // The geometry check only applies once both sides carry samples —
    // merging an empty or default-constructed histogram is always fine
    // (that lenience is what lets fresh VcMetrics fold into results).
    Histogram a(1.0, 8);
    a.add(1.0);
    Histogram wrong_bins(1.0, 4);
    a.merge(wrong_bins);  // rhs empty: tolerated
    EXPECT_EQ(a.total(), 1u);

    wrong_bins.add(1.0);
    EXPECT_DEATH(a.merge(wrong_bins), "different geometry");
    Histogram wrong_width(2.0, 8);
    wrong_width.add(1.0);
    EXPECT_DEATH(a.merge(wrong_width), "different geometry");
}

TEST(VcMetricsEdges, MergeAccumulatesSamplesAndPerVcLanes)
{
    VcMetrics a;
    a.occupancy.add(0.25);
    a.occupancyHist.add(0.25);
    a.perVc.resize(2);
    a.perVc[0].add(0.5);
    a.samples = 1;

    VcMetrics b;
    b.occupancy.add(0.75);
    b.occupancyHist.add(0.75);
    b.perVc.resize(4);  // wider layout: merge must widen the target
    b.perVc[3].add(1.0);
    b.samples = 3;

    a.merge(b);
    EXPECT_EQ(a.samples, 4u);
    EXPECT_EQ(a.occupancy.count(), 2u);
    EXPECT_NEAR(a.occupancy.mean(), 0.5, 1e-12);
    EXPECT_EQ(a.occupancyHist.total(), 2u);
    ASSERT_EQ(a.perVc.size(), 4u);
    EXPECT_EQ(a.perVc[0].count(), 1u);
    EXPECT_EQ(a.perVc[3].count(), 1u);

    VcMetrics empty;
    empty.merge(a);
    EXPECT_EQ(empty.samples, a.samples);
    EXPECT_EQ(empty.occupancy.count(), a.occupancy.count());
}

TEST(VcMetricsEdges, FoldReplicationsAggregatesVcSamples)
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.msgLength = 8;
    cfg.load = 0.1;
    cfg.warmup = 100;
    cfg.measure = 512;
    cfg.metricsPeriod = 64;
    cfg.seed = 2026;
    const Simulator sim(cfg);

    std::vector<RunResult> reps;
    for (std::size_t r = 0; r < 3; ++r)
        reps.push_back(sim.run(r));
    for (const RunResult &r : reps)
        EXPECT_GT(r.vc.samples, 0u) << "registry took no samples";

    ReplicationFold fold(3, 3);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(fold.add(reps[r]), r == 2) << "stopped early at " << r;
    const ReplicatedResult folded = fold.finish();
    ASSERT_EQ(folded.replications, 3u);

    std::uint64_t want_samples = 0;
    std::uint64_t want_occ = 0;
    for (const RunResult &r : reps) {
        want_samples += r.vc.samples;
        want_occ += r.vc.occupancy.count();
    }
    // Merging is exact for counts: the fold must see every sample of
    // every replication, regardless of grouping.
    EXPECT_EQ(folded.mean.vc.samples, want_samples);
    EXPECT_EQ(folded.mean.vc.occupancy.count(), want_occ);
    EXPECT_EQ(folded.mean.vc.perVc.size(),
              static_cast<std::size_t>(cfg.vcsPerLink()));
}

TEST(CountersEdges, FoldReplicationsSumsEveryCounter)
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.protocol = Protocol::TwoPhase;
    cfg.msgLength = 8;
    cfg.load = 0.1;
    cfg.warmup = 100;
    cfg.measure = 400;
    cfg.seed = 7;
    const Simulator sim(cfg);
    const RunResult a = sim.run(0);
    const RunResult b = sim.run(1);
    ASSERT_GT(a.counters.dataCrossings, 0u);
    ASSERT_NE(a.counters.dataCrossings, b.counters.dataCrossings);

    ReplicationFold fold(2, 2);
    EXPECT_FALSE(fold.add(a));
    EXPECT_TRUE(fold.add(b));
    const ReplicatedResult folded = fold.finish();
    ASSERT_EQ(folded.replications, 2u);
    const Counters &sum = folded.mean.counters;
    EXPECT_EQ(sum.dataCrossings,
              a.counters.dataCrossings + b.counters.dataCrossings);
    EXPECT_EQ(sum.headerMoves,
              a.counters.headerMoves + b.counters.headerMoves);
    EXPECT_EQ(sum.generated, a.counters.generated + b.counters.generated);
    EXPECT_EQ(sum.latency.count(),
              a.counters.latency.count() + b.counters.latency.count());
    EXPECT_EQ(sum.latencyHist.total(),
              a.counters.latencyHist.total() + b.counters.latencyHist.total());
}

TEST(VcMetricsEdges, DisabledPeriodTakesNoSamples)
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.msgLength = 8;
    cfg.load = 0.1;
    cfg.warmup = 50;
    cfg.measure = 256;
    cfg.metricsPeriod = 0;
    cfg.seed = 2026;
    const RunResult r = Simulator(cfg).run();
    EXPECT_EQ(r.vc.samples, 0u);
    EXPECT_EQ(r.vc.occupancy.count(), 0u);
}

} // namespace
} // namespace tpnet
