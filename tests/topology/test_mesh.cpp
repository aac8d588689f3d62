/** @file Mesh (non-wraparound) variant: geometry, routing, protocols. */

#include <gtest/gtest.h>

#include "core/validator.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

SimConfig
meshConfig(Protocol p = Protocol::TwoPhase, int k = 8, int n = 2)
{
    SimConfig cfg = test::smallConfig(p, k, n);
    cfg.topology = TopologyKind::Mesh;
    return cfg;
}

TEST(MeshTopo, OffsetsNeverWrap)
{
    TorusTopology mesh(8, 2, false);
    EXPECT_EQ(mesh.offsets(0, 7)[0], 7);       // torus would say -1
    EXPECT_EQ(mesh.distance(0, 7), 7);
    EXPECT_EQ(mesh.offsets(7, 0)[0], -7);
    EXPECT_EQ(mesh.diameter(), 14);  // n * (k - 1)
}

TEST(MeshTopo, ConfigDiameterAndMeanDistance)
{
    SimConfig cfg = meshConfig();
    const auto topo = makeTopology(cfg);
    EXPECT_EQ(topo->diameter(), 14);  // n * (k - 1)
    // Per-dimension mean |a-b| = (k^2 - 1) / (3k) = 63/24 = 2.625.
    EXPECT_NEAR(topo->avgMinDistance(), 2.0 * 63.0 / 24.0, 1e-9);
}

TEST(MeshTopo, NoDatelines)
{
    TorusTopology mesh(8, 2, false);
    EXPECT_FALSE(mesh.crossesDateline(7, portOf(0, Dir::Plus)));
    EXPECT_TRUE(mesh.wrapsAround(7, portOf(0, Dir::Plus)));
    EXPECT_TRUE(mesh.wrapsAround(0, portOf(0, Dir::Minus)));
    EXPECT_FALSE(mesh.wrapsAround(3, portOf(0, Dir::Plus)));
}

TEST(MeshTopo, SingleEscapeClassAllowed)
{
    SimConfig cfg = meshConfig();
    cfg.escapeVcs = 1;
    cfg.adaptiveVcs = 3;
    cfg.validate();  // must not die (no dateline requirement)
    Network net(cfg);
    net.setMeasuring(true);
    net.offerMessage(0, 7 + 8 * 7);
    EXPECT_TRUE(test::runToQuiescent(net));
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Mesh, WrapChannelsAbsent)
{
    Network net(meshConfig());
    EXPECT_TRUE(net.linkAt(7, portOf(0, Dir::Plus)).absent);
    EXPECT_TRUE(net.channelFaulty(7, portOf(0, Dir::Plus)));
    EXPECT_FALSE(net.linkAt(3, portOf(0, Dir::Plus)).absent);
    // Absent channels are not failures: nothing is unsafe.
    for (LinkId id = 0; id < net.topo().links(); ++id)
        EXPECT_FALSE(net.link(id).unsafe);
}

TEST(Mesh, DorLatencyFormulaHolds)
{
    SimConfig cfg = meshConfig(Protocol::DimOrder, 16, 2);
    // Corner to corner along one dimension: 13 hops, no wrap shortcut.
    EXPECT_EQ(test::oneShotLatency(cfg, 0, 13),
              analytic::wrLatency(13, cfg.msgLength));
}

TEST(Mesh, CornerToCornerDelivery)
{
    SimConfig cfg = meshConfig(Protocol::TwoPhase, 8, 2);
    const NodeId far = 7 + 8 * 7;
    EXPECT_EQ(test::oneShotLatency(cfg, 0, far),
              analytic::wrLatency(14, cfg.msgLength) - 1);
}

class MeshProtocolSweep : public ::testing::TestWithParam<Protocol>
{};

TEST_P(MeshProtocolSweep, LoadedMeshConservation)
{
    SimConfig cfg = meshConfig(GetParam(), 8, 2);
    cfg.msgLength = 16;
    cfg.load = 0.1;
    cfg.seed = 61;
    Network net(cfg);
    Injector inj(net);
    net.setMeasuring(true);
    for (Cycle c = 0; c < 2000; ++c) {
        inj.step();
        net.step();
        if (c % 199 == 0) {
            ASSERT_TRUE(validateNetwork(net).empty()) << "cycle " << c;
        }
    }
    inj.stop();
    ASSERT_TRUE(test::runToQuiescent(net, 300000));
    const Counters &c = net.counters();
    EXPECT_EQ(c.delivered + c.dropped + c.lost, c.generated);
    EXPECT_EQ(c.dropped + c.lost, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MeshProtocolSweep,
                         ::testing::Values(Protocol::DimOrder,
                                           Protocol::Duato,
                                           Protocol::Scouting,
                                           Protocol::MBm,
                                           Protocol::TwoPhase));

TEST(Mesh, FaultTolerantRoutingAroundFailedNode)
{
    SimConfig cfg = meshConfig(Protocol::TwoPhase, 8, 2);
    Network net(cfg);
    net.failNode(2);  // on the 0 -> 4 row; no wrap detour exists
    net.setMeasuring(true);
    net.offerMessage(0, 4);
    EXPECT_TRUE(test::runToQuiescent(net, 100000));
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Mesh, EdgeNodeWithFaultsStillRoutes)
{
    // Corner nodes have only two healthy neighbors on a mesh; failing
    // one leaves a single way out.
    SimConfig cfg = meshConfig(Protocol::MBm, 8, 2);
    Network net(cfg);
    net.failNode(1);  // corner 0's +x neighbor
    net.setMeasuring(true);
    net.offerMessage(0, 5);
    EXPECT_TRUE(test::runToQuiescent(net, 100000));
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Mesh, SummaryMentionsMesh)
{
    EXPECT_NE(meshConfig().summary().find("mesh"), std::string::npos);
}

} // namespace
} // namespace tpnet
