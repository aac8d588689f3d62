/**
 * @file
 * Loud-rejection wall: coordinate-defined traffic patterns and
 * malformed geometry are refused at validate() time with pinned
 * messages, instead of silently routing garbage on a topology whose
 * node numbering is not cube coordinates. Death tests pin the message
 * text so a refactor cannot quietly drop the guard.
 */

#include <gtest/gtest.h>

#include "sim/config.hpp"

namespace tpnet {
namespace {

SimConfig
dragonflyConfig()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Dragonfly;
    cfg.dfRouters = 4;
    cfg.dfGlobal = 1;
    return cfg;
}

SimConfig
expressConfig(int k = 6, int gap = 2)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Express;
    cfg.k = k;
    cfg.n = 2;
    cfg.expressGap = gap;
    return cfg;
}

TEST(TopologyRejectionDeathTest, CoordinatePatternOnDragonfly)
{
    SimConfig cfg = dragonflyConfig();
    cfg.pattern = TrafficPattern::Transpose;
    EXPECT_DEATH(cfg.validate(),
                 "traffic is defined on k-ary n-cube coordinates; "
                 "--topology dragonfly supports uniform only");
}

TEST(TopologyRejectionDeathTest, IndexBitPatternOnDragonfly)
{
    // Index-bit patterns (bit-reversal/shuffle) stay cube-only even
    // when the node count happens to be a power of two.
    SimConfig cfg = dragonflyConfig();
    cfg.pattern = TrafficPattern::Shuffle;
    EXPECT_DEATH(cfg.validate(),
                 "traffic is defined on k-ary n-cube coordinates");
}

TEST(TopologyRejectionDeathTest, CoordinatePatternInTrafficClass)
{
    SimConfig cfg = dragonflyConfig();
    TrafficClassConfig tc;
    tc.pattern = TrafficPattern::BitComplement;
    tc.load = 0.1;
    cfg.trafficClasses.push_back(tc);
    EXPECT_DEATH(cfg.validate(),
                 "class 0: .* traffic is defined on k-ary n-cube "
                 "coordinates; --topology dragonfly supports uniform "
                 "only");
}

TEST(TopologyRejectionDeathTest, IndexBitPatternOnNonPow2Express)
{
    // The 6-ary 2-cube-with-express has 36 nodes: cube coordinates
    // exist, but the index-bit permutations need 2^b nodes.
    SimConfig cfg = expressConfig();
    cfg.pattern = TrafficPattern::BitReversal;
    EXPECT_DEATH(cfg.validate(),
                 "traffic requires a power-of-two node count \\(got "
                 "36\\)");
}

TEST(TopologyRejectionDeathTest, ExpressGapOutOfRange)
{
    SimConfig low = expressConfig(6, 1);
    EXPECT_DEATH(low.validate(), "express gap must be in");
    SimConfig high = expressConfig(6, 6);
    EXPECT_DEATH(high.validate(), "express gap must be in");
}

TEST(TopologyRejectionDeathTest, DragonflyGeometryBounds)
{
    SimConfig routers = dragonflyConfig();
    routers.dfRouters = 1;
    EXPECT_DEATH(routers.validate(),
                 "dragonfly needs at least 2 routers per group");
    SimConfig globals = dragonflyConfig();
    globals.dfGlobal = 0;
    EXPECT_DEATH(globals.validate(),
                 "dragonfly needs at least 1 global channel per router");
    SimConfig vcs = dragonflyConfig();
    vcs.escapeVcs = 1;
    EXPECT_DEATH(vcs.validate(),
                 "dragonfly escape routing requires 2 VC classes");
}

TEST(TopologyNames, ParseAndPrintRoundTrip)
{
    for (const char *name : {"torus", "mesh", "express", "dragonfly"}) {
        TopologyKind kind{};
        EXPECT_TRUE(parseEnumName(name, &kind)) << name;
        EXPECT_STREQ(topologyName(kind), name);
    }
    TopologyKind kind{};
    EXPECT_FALSE(parseEnumName("hypercube", &kind));
    EXPECT_FALSE(parseEnumName("", &kind));
}

TEST(TopologyNames, UniformTrafficIsAcceptedEverywhere)
{
    for (SimConfig cfg : {dragonflyConfig(), expressConfig()}) {
        cfg.pattern = TrafficPattern::Uniform;
        cfg.validate();  // must not die
    }
}

} // namespace
} // namespace tpnet
