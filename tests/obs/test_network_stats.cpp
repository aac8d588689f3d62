/** @file Network structural statistics (MetricsRegistry::snapshot). */

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "obs/metrics_registry.hpp"

namespace tpnet {
namespace {

using obs::MetricsRegistry;
using obs::NetworkStats;
using test::smallConfig;

TEST(NetStats, IdleNetworkIsZero)
{
    Network net(smallConfig());
    const NetworkStats s = MetricsRegistry::snapshot(net);
    EXPECT_EQ(s.dataCrossings, 0u);
    EXPECT_EQ(s.busyVcs, 0);
    EXPECT_EQ(s.bufferedFlits, 0);
    EXPECT_EQ(s.faultyNodes, 0);
    EXPECT_EQ(s.totalVcs, net.topo().links() * net.vcCount());
}

TEST(NetStats, CountsBusyVcsMidFlight)
{
    SimConfig cfg = smallConfig(Protocol::DimOrder);
    cfg.msgLength = 64;
    Network net(cfg);
    net.offerMessage(0, 4);
    for (int c = 0; c < 10; ++c)
        net.step();
    const NetworkStats s = MetricsRegistry::snapshot(net);
    EXPECT_GT(s.busyVcs, 0);
    EXPECT_GT(s.bufferedFlits, 0);
    EXPECT_GT(s.dataCrossings, 0u);
    EXPECT_TRUE(test::runToQuiescent(net));
    const NetworkStats done = MetricsRegistry::snapshot(net);
    EXPECT_EQ(done.busyVcs, 0);
    EXPECT_EQ(done.bufferedFlits, 0);
}

TEST(NetStats, FaultAccounting)
{
    Network net(smallConfig());
    net.failNode(9);
    net.failLink(0, 0);
    const NetworkStats s = MetricsRegistry::snapshot(net);
    EXPECT_EQ(s.faultyNodes, 1);
    // 4 ports x 2 directions for the node + 2 wires for the link.
    EXPECT_EQ(s.faultyLinks, 10);
    EXPECT_GT(s.unsafeLinks, 0);
}

TEST(NetStats, ControlShareSmallForWormhole)
{
    SimConfig cfg = smallConfig(Protocol::DimOrder);
    cfg.load = 0.2;
    Network net(cfg);
    Injector inj(net);
    for (int cyc = 0; cyc < 1500; ++cyc) {
        inj.step();
        net.step();
    }
    const NetworkStats s = MetricsRegistry::snapshot(net);
    EXPECT_EQ(s.ctrlShare, 0.0);  // pure WR uses no control lane
    EXPECT_GT(s.meanLinkCrossings, 0.0);
    EXPECT_GE(s.linkLoadImbalance, 1.0);
}

TEST(NetStats, ReportMentionsEverything)
{
    Network net(smallConfig());
    const std::string r = MetricsRegistry::snapshot(net).report();
    EXPECT_NE(r.find("traffic:"), std::string::npos);
    EXPECT_NE(r.find("links:"), std::string::npos);
    EXPECT_NE(r.find("vcs:"), std::string::npos);
    EXPECT_NE(r.find("faults:"), std::string::npos);
}

} // namespace
} // namespace tpnet
