/** @file Simulator driver: windows, replications, reproducibility. */

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace tpnet {
namespace {

SimConfig
fastConfig()
{
    SimConfig cfg;
    cfg.k = 8;
    cfg.n = 2;
    cfg.protocol = Protocol::TwoPhase;
    cfg.msgLength = 16;
    cfg.load = 0.1;
    cfg.warmup = 300;
    cfg.measure = 1500;
    cfg.drain = 20000;
    cfg.seed = 42;
    return cfg;
}

TEST(Simulator, RunIsReproducible)
{
    Simulator sim(fastConfig());
    const RunResult a = sim.run(0);
    const RunResult b = sim.run(0);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.counters.generated, b.counters.generated);
}

TEST(Simulator, ReplicationsDiffer)
{
    Simulator sim(fastConfig());
    const RunResult a = sim.run(0);
    const RunResult b = sim.run(1);
    EXPECT_NE(a.counters.generated, b.counters.generated);
}

TEST(Simulator, ThroughputTracksOfferedBelowSaturation)
{
    // At a load well below saturation, accepted throughput ~= offered.
    Simulator sim(fastConfig());
    const RunResult r = sim.run(0);
    EXPECT_NEAR(r.throughput, 0.1, 0.02);
    EXPECT_GT(r.deliveredFraction, 0.99);
}

TEST(Simulator, LatencyAboveAnalyticFloor)
{
    // Mean latency can never beat the zero-load formula at the mean
    // minimal distance... use the 1-hop floor as a conservative bound.
    Simulator sim(fastConfig());
    const RunResult r = sim.run(0);
    EXPECT_GT(r.avgLatency,
              static_cast<double>(analytic::wrLatency(1, 16)));
}

TEST(Simulator, MeasuredMessagesResolveByDrain)
{
    Simulator sim(fastConfig());
    const RunResult r = sim.run(0);
    EXPECT_EQ(r.counters.measuredDelivered + r.counters.measuredDropped,
              r.counters.measuredGenerated);
}

TEST(Experiment, RunReplicatedStopsAtCap)
{
    const ReplicatedResult r =
        runReplicated(fastConfig(), SweepOptions{2, 3, 1e-9});
    EXPECT_EQ(r.replications, 3u);
    EXPECT_FALSE(r.converged);
}

TEST(Experiment, RunReplicatedConvergesWithLooseBound)
{
    const ReplicatedResult r =
        runReplicated(fastConfig(), SweepOptions{2, 10, 0.5});
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.replications, 10u);
    EXPECT_GE(r.replications, 2u);
    EXPECT_GT(r.mean.avgLatency, 0.0);
}

TEST(Simulator, DynamicFaultBudgetHonored)
{
    SimConfig cfg = fastConfig();
    cfg.dynamicNodeFaults = 3.0;
    cfg.load = 0.05;
    Simulator sim(cfg);
    const RunResult r = sim.run(0);
    EXPECT_LE(r.counters.dynamicFaults, 3u);
}

TEST(Experiment, LoadSweepShapes)
{
    SimConfig cfg = fastConfig();
    cfg.measure = 1000;
    const Series s =
        loadSweep(cfg, "TP", {0.05, 0.3}, SweepOptions{1, 1, 0.05});
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.label, "TP");
    // Latency grows with load; throughput grows with load.
    EXPECT_GT(s.points[1].result.mean.avgLatency,
              s.points[0].result.mean.avgLatency);
    EXPECT_GT(s.points[1].result.mean.throughput,
              s.points[0].result.mean.throughput);
}

TEST(Experiment, FaultSweepRuns)
{
    SimConfig cfg = fastConfig();
    cfg.measure = 800;
    cfg.load = 0.05;
    const Series s =
        faultSweep(cfg, "TP", {0, 3}, SweepOptions{1, 1, 0.05});
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[1].x, 3.0);
    EXPECT_GT(s.points[1].result.mean.avgLatency, 0.0);
}

TEST(Experiment, DefaultLoadGridMonotone)
{
    const auto grid = defaultLoadGrid();
    ASSERT_GE(grid.size(), 5u);
    for (std::size_t i = 1; i < grid.size(); ++i)
        EXPECT_GT(grid[i], grid[i - 1]);
}

} // namespace
} // namespace tpnet
