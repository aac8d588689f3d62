/** @file Traffic patterns and the open-loop injector. */

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace tpnet {
namespace {

using test::smallConfig;

TEST(Pattern, BitComplementMapping)
{
    SimConfig cfg = smallConfig();
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::BitComplement},
                      net.topo());
    // (1, 2) -> (6, 5) on an 8-ary 2-cube.
    EXPECT_EQ(src.mapped(1 + 8 * 2), 6 + 8 * 5);
    // Self-mapping never happens for k even.
    for (NodeId s = 0; s < net.topo().nodes(); ++s)
        EXPECT_NE(src.mapped(s), s);
}

TEST(Pattern, TransposeMapping)
{
    SimConfig cfg = smallConfig();
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Transpose},
                      net.topo());
    EXPECT_EQ(src.mapped(3 + 8 * 5), 5 + 8 * 3);
    // Diagonal nodes map to themselves -> pick() rejects them.
    EXPECT_EQ(src.mapped(2 + 8 * 2), 2 + 8 * 2);
    Rng rng(1);
    EXPECT_EQ(src.pick(net, 2 + 8 * 2, rng), invalidNode);
}

TEST(Pattern, NeighborPlusMapping)
{
    SimConfig cfg = smallConfig();
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::NeighborPlus},
                      net.topo());
    EXPECT_EQ(src.mapped(0), 1);
    EXPECT_EQ(src.mapped(7), 0);  // wraps
}

TEST(Pattern, TornadoMapping)
{
    SimConfig cfg = smallConfig();
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Tornado},
                      net.topo());
    // k = 8 (even): offset k/2 - 1 = 3 in each dimension.
    EXPECT_EQ(src.mapped(0), 3 + 8 * 3);
}

TEST(Pattern, TornadoBinaryRingPermutes)
{
    // Regression: on k = 2 the old offset floor((k-1)/2) was 0, so
    // every node self-mapped and tornado runs silently offered zero
    // load while reporting success. The offset is clamped to >= 1.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 2, 3);
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Tornado},
                      net.topo());
    for (NodeId s = 0; s < net.topo().nodes(); ++s)
        EXPECT_NE(src.mapped(s), s) << s;
}

TEST(Pattern, UniformFallbackDrawsFromHealthySet)
{
    // Regression: with nearly every node faulty, the 64-attempt
    // rejection loop usually exhausts itself; the old code then
    // returned invalidNode, silently thinning the offered load. The
    // draw now falls back to the explicit healthy set and counts the
    // event.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 16, 2);  // 256 nodes
    Network net(cfg);
    for (NodeId id = 0; id < net.topo().nodes(); ++id)
        if (id != 3 && id != 250)
            net.failNode(id);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Uniform},
                      net.topo());
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(src.pick(net, 3, rng), 250);
    EXPECT_GT(net.counters().uniformFallbacks, 0u);

    // Source is the last node standing: nothing to send to.
    net.failNode(250);
    EXPECT_EQ(src.pick(net, 3, rng), invalidNode);
}

TEST(Pattern, UniformAvoidsSelfAndFaulty)
{
    SimConfig cfg = smallConfig();
    Network net(cfg);
    net.failNode(5);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Uniform},
                      net.topo());
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const NodeId dst = src.pick(net, 3, rng);
        ASSERT_NE(dst, 3);
        ASSERT_NE(dst, 5);
        ASSERT_GE(dst, 0);
        ASSERT_LT(dst, net.topo().nodes());
    }
}

TEST(Pattern, UniformCoversAllHealthyNodes)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 4, 2);
    Network net(cfg);
    TrafficSource src(TrafficClassConfig{TrafficPattern::Uniform},
                      net.topo());
    Rng rng(9);
    std::vector<int> hits(static_cast<std::size_t>(net.topo().nodes()));
    for (int i = 0; i < 4000; ++i)
        ++hits[static_cast<std::size_t>(src.pick(net, 0, rng))];
    for (NodeId id = 1; id < net.topo().nodes(); ++id)
        EXPECT_GT(hits[static_cast<std::size_t>(id)], 0) << id;
    EXPECT_EQ(hits[0], 0);
}

TEST(Injector, GeneratesAtConfiguredRate)
{
    SimConfig cfg = smallConfig();
    cfg.load = 0.16;  // msgs/node/cycle = 0.005
    Network net(cfg);
    Injector inj(net);
    const int cycles = 2000;
    for (int c = 0; c < cycles; ++c) {
        inj.step();
        net.step();
    }
    const double expected =
        cfg.load / cfg.msgLength * net.topo().nodes() * cycles;
    EXPECT_NEAR(static_cast<double>(inj.offered()), expected,
                0.15 * expected);
}

TEST(Injector, StopHaltsGeneration)
{
    SimConfig cfg = smallConfig();
    cfg.load = 0.2;
    Network net(cfg);
    Injector inj(net);
    inj.step();
    inj.stop();
    const auto before = inj.offered();
    for (int c = 0; c < 100; ++c)
        inj.step();
    EXPECT_EQ(inj.offered(), before);
}

TEST(Injector, CongestionControlRejectsOverload)
{
    // Offered load far beyond capacity: the 8-deep injection queues
    // fill and further offers are rejected rather than queued without
    // bound (Section 6.0).
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.load = 3.9;
    cfg.msgLength = 32;
    Network net(cfg);
    Injector inj(net);
    for (int c = 0; c < 2000; ++c) {
        inj.step();
        net.step();
    }
    EXPECT_GT(net.counters().notAccepted, 0u);
    for (NodeId id = 0; id < net.topo().nodes(); ++id)
        EXPECT_LE(net.injQueueLen(id), 8u);
}

TEST(Injector, SkipsFaultySources)
{
    SimConfig cfg = smallConfig();
    cfg.load = 0.3;
    Network net(cfg);
    net.failNode(0);
    Injector inj(net);
    for (int c = 0; c < 500; ++c) {
        inj.step();
        net.step();
    }
    EXPECT_EQ(net.injQueueLen(0), 0u);
}

} // namespace
} // namespace tpnet
