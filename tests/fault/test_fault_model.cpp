/** @file Fault model: failure marking, unsafe designation, placement. */

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace tpnet {
namespace {

using test::smallConfig;

TEST(FaultModel, FailNodeMarksAllIncidentLinks)
{
    Network net(smallConfig());
    const NodeId victim = 27;
    net.failNode(victim);
    EXPECT_TRUE(net.nodeFaulty(victim));
    for (int port = 0; port < net.topo().radix(); ++port) {
        EXPECT_TRUE(net.linkAt(victim, port).faulty);
        const NodeId nbr = net.topo().neighbor(victim, port);
        // The reverse wire into the failed node is faulty too.
        EXPECT_TRUE(net.channelFaulty(nbr, oppositePort(port)));
    }
}

TEST(FaultModel, FailNodeIdempotent)
{
    Network net(smallConfig());
    net.failNode(5);
    net.failNode(5);
    EXPECT_TRUE(net.nodeFaulty(5));
    EXPECT_EQ(net.healthyNodes().size(),
              static_cast<std::size_t>(net.topo().nodes() - 1));
}

TEST(FaultModel, UnsafeMarkingCoversNeighborsOfFailed)
{
    // Section 2.4 / Fig. 3: channels incident on PEs adjacent to the
    // failed PE are unsafe.
    Network net(smallConfig());
    const NodeId victim = 27;
    net.failNode(victim);
    for (int port = 0; port < net.topo().radix(); ++port) {
        const NodeId nbr = net.topo().neighbor(victim, port);
        bool any_unsafe = false;
        for (int p2 = 0; p2 < net.topo().radix(); ++p2) {
            if (!net.channelFaulty(nbr, p2) &&
                net.channelUnsafe(nbr, p2)) {
                any_unsafe = true;
            }
        }
        EXPECT_TRUE(any_unsafe) << "neighbor " << nbr;
    }
}

TEST(FaultModel, DistantChannelsStaySafe)
{
    Network net(smallConfig(Protocol::TwoPhase, 16, 2));
    net.failNode(0);
    // A node far from the failure keeps safe channels.
    const NodeId far = 8 + 16 * 8;
    for (int port = 0; port < net.topo().radix(); ++port)
        EXPECT_TRUE(!net.channelFaulty(far, port) &&
                    !net.channelUnsafe(far, port));
}

TEST(FaultModel, FailLinkMarksBothDirections)
{
    Network net(smallConfig());
    net.failLink(0, portOf(0, Dir::Plus));
    EXPECT_TRUE(net.channelFaulty(0, portOf(0, Dir::Plus)));
    EXPECT_TRUE(net.channelFaulty(1, portOf(0, Dir::Minus)));
    EXPECT_FALSE(net.nodeFaulty(0));
    EXPECT_FALSE(net.nodeFaulty(1));
}

TEST(FaultModel, FailedLinkEndpointsBecomeUnsafeRegion)
{
    Network net(smallConfig());
    net.failLink(0, portOf(0, Dir::Plus));
    // Endpoints are adjacent to the failed channel: their remaining
    // healthy channels are unsafe.
    EXPECT_TRUE(net.channelUnsafe(0, portOf(1, Dir::Plus)));
    EXPECT_TRUE(net.channelUnsafe(1, portOf(1, Dir::Plus)));
}

TEST(FaultModel, StaticPlacementMatchesConfig)
{
    SimConfig cfg = smallConfig();
    cfg.staticNodeFaults = 7;
    cfg.seed = 77;
    Network net(cfg);
    EXPECT_EQ(net.healthyNodes().size(),
              static_cast<std::size_t>(net.topo().nodes() - 7));
}

TEST(FaultModel, StaticLinkPlacement)
{
    SimConfig cfg = smallConfig();
    cfg.staticLinkFaults = 5;
    cfg.seed = 3;
    Network net(cfg);
    int faulty_wires = 0;
    for (LinkId id = 0; id < net.topo().links(); ++id)
        faulty_wires += net.link(id).faulty ? 1 : 0;
    EXPECT_EQ(faulty_wires, 10);  // 5 full-duplex links = 10 wires
    EXPECT_EQ(net.healthyNodes().size(),
              static_cast<std::size_t>(net.topo().nodes()));
}

TEST(FaultModel, ProtectPerimeterKeepsNodeZero)
{
    SimConfig cfg = smallConfig();
    cfg.staticNodeFaults = 20;
    cfg.protectPerimeter = true;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cfg.seed = seed;
        Network net(cfg);
        EXPECT_FALSE(net.nodeFaulty(0));
    }
}

TEST(FaultModel, PlacementIsSeedDeterministic)
{
    SimConfig cfg = smallConfig();
    cfg.staticNodeFaults = 5;
    cfg.seed = 11;
    Network a(cfg), b(cfg);
    EXPECT_EQ(a.healthyNodes(), b.healthyNodes());
}

TEST(FaultModel, QueuedMessagesAtFailedNodeDropped)
{
    Network net(smallConfig());
    net.offerMessage(5, 40);
    net.offerMessage(5, 41);
    net.failNode(5);
    EXPECT_TRUE(test::runToQuiescent(net, 50000));
    const Counters &c = net.counters();
    EXPECT_EQ(c.delivered, 0u);
    EXPECT_EQ(c.dropped + c.lost, 2u);
}

} // namespace
} // namespace tpnet
