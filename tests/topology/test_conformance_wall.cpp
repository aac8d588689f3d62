/**
 * @file
 * Topology conformance wall: every topology in topologyRegistry() is
 * subjected to the full Topology contract — channel-table involution,
 * distance sanity, profitable-port consistency, escape-walk
 * termination, static escape-CDG acyclicity (Theorem 3's structural
 * precondition), all-pairs delivery on a live network, and a loaded
 * fault-free drain with the CWG oracle armed. Adding a topology to the
 * registry automatically adds it to every one of these suites; a new
 * family that passes the wall is wired correctly by construction.
 */

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/validator.hpp"
#include "helpers.hpp"
#include "topology/registry.hpp"
#include "verify/escape_cdg.hpp"

namespace tpnet {
namespace {

class TopologyWall : public ::testing::TestWithParam<TopologyKind>
{
  protected:
    const TopologyEntry &entry() const
    {
        return topologyEntry(GetParam());
    }

    SimConfig config() const { return entry().wallConfig(); }

    std::unique_ptr<const Topology> build() const
    {
        return entry().make(config());
    }
};

std::string
wallName(const ::testing::TestParamInfo<TopologyKind> &info)
{
    return topologyEntry(info.param).name;
}

TEST_P(TopologyWall, RegistryEntryIsConsistent)
{
    const TopologyEntry &e = entry();
    EXPECT_STREQ(e.name, topologyName(e.kind));
    const auto topo = build();
    EXPECT_EQ(topo->kind(), e.kind);
    EXPECT_STREQ(topo->name(), e.name);
    EXPECT_GE(topo->nodes(), 2);
    EXPECT_GE(topo->radix(), 1);
    EXPECT_LE(topo->radix(), maxPorts);
    EXPECT_GE(topo->minEscapeVcs(), 1);
    // The wall config must itself be valid and describe this topology.
    SimConfig cfg = config();
    cfg.validate();
    EXPECT_EQ(cfg.nodes(), topo->nodes());
    EXPECT_EQ(cfg.radix(), topo->radix());
    EXPECT_GE(cfg.escapeVcs, topo->minEscapeVcs());
}

TEST_P(TopologyWall, ChannelTableIsAnInvolution)
{
    const auto topo = build();
    // Every present (node, port) names a wire whose reverse entry
    // points straight back: neighbor/arrivalPort form an involution,
    // which makes reverseLink its own inverse and the channel table a
    // bijection over present ports.
    std::set<std::pair<NodeId, int>> arrivals;
    for (NodeId u = 0; u < topo->nodes(); ++u) {
        for (int p = 0; p < topo->radix(); ++p) {
            if (!topo->portPresent(u, p))
                continue;
            const NodeId v = topo->neighbor(u, p);
            const int q = topo->arrivalPort(u, p);
            ASSERT_GE(v, 0) << "node " << u << " port " << p;
            ASSERT_LT(v, topo->nodes()) << "node " << u << " port " << p;
            ASSERT_NE(v, u) << "self-loop at node " << u << " port " << p;
            ASSERT_GE(q, 0) << "node " << u << " port " << p;
            ASSERT_LT(q, topo->radix()) << "node " << u << " port " << p;
            // The reverse wire exists and points back on the same pair.
            EXPECT_TRUE(topo->portPresent(v, q))
                << "reverse of (" << u << ", " << p << ")";
            EXPECT_EQ(topo->neighbor(v, q), u)
                << "node " << u << " port " << p;
            EXPECT_EQ(topo->arrivalPort(v, q), p)
                << "node " << u << " port " << p;
            const LinkId l = topo->linkId(u, p);
            EXPECT_EQ(topo->linkSrc(l), u);
            EXPECT_EQ(topo->linkPort(l), p);
            EXPECT_EQ(topo->linkDst(l), v);
            EXPECT_EQ(topo->reverseLink(topo->reverseLink(l)), l);
            // Bijectivity: no two output ports feed the same input.
            EXPECT_TRUE(arrivals.insert({v, q}).second)
                << "two channels arrive at node " << v << " port " << q;
        }
    }
}

TEST_P(TopologyWall, DistanceIsAMetric)
{
    const auto topo = build();
    const int n = topo->nodes();
    int maxSeen = 0;
    for (NodeId u = 0; u < n; ++u) {
        EXPECT_EQ(topo->distance(u, u), 0);
        for (NodeId v = 0; v < n; ++v) {
            if (u == v)
                continue;
            const int d = topo->distance(u, v);
            EXPECT_GE(d, 1) << u << " -> " << v;
            EXPECT_LE(d, topo->diameter()) << u << " -> " << v;
            EXPECT_EQ(topo->distance(v, u), d)
                << "asymmetric " << u << " <-> " << v;
            maxSeen = std::max(maxSeen, d);
            // One-hop consistency: crossing any present channel changes
            // the distance by at most one.
            for (int p = 0; p < topo->radix(); ++p) {
                if (!topo->portPresent(u, p))
                    continue;
                const int dn = topo->distance(topo->neighbor(u, p), v);
                EXPECT_LE(std::abs(dn - d), 1)
                    << u << " -> " << v << " via port " << p;
            }
        }
    }
    // The diameter is attained.
    EXPECT_EQ(maxSeen, topo->diameter());
}

TEST_P(TopologyWall, ProfitablePortsMakeMinimalProgress)
{
    const auto topo = build();
    const int n = topo->nodes();
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
            if (u == v)
                continue;
            const PortList ports = topo->profitablePorts(u, v);
            ASSERT_FALSE(ports.empty()) << u << " -> " << v;
            std::set<int> seen;
            for (int p : ports) {
                ASSERT_GE(p, 0) << u << " -> " << v;
                ASSERT_LT(p, topo->radix()) << u << " -> " << v;
                EXPECT_TRUE(seen.insert(p).second)
                    << "duplicate port " << p << " for " << u << " -> "
                    << v;
                EXPECT_TRUE(topo->portProfitable(u, p, v))
                    << u << " -> " << v << " port " << p;
                EXPECT_EQ(topo->distance(topo->neighbor(u, p), v),
                          topo->distance(u, v) - 1)
                    << u << " -> " << v << " port " << p;
            }
        }
    }
}

TEST_P(TopologyWall, EscapeWalkReachesEveryDestination)
{
    const auto topo = build();
    const int n = topo->nodes();
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (src == dst)
                continue;
            NodeId cur = src;
            int hops = 0;
            while (cur != dst && hops <= n) {
                const int p = topo->escapePort(cur, dst);
                ASSERT_GE(p, 0) << "no escape port at " << cur
                                << " toward " << dst;
                ASSERT_LT(p, topo->radix());
                ASSERT_TRUE(topo->portPresent(cur, p))
                    << "escape through absent channel at " << cur
                    << " port " << p;
                cur = topo->neighbor(cur, p);
                ++hops;
            }
            ASSERT_EQ(cur, dst)
                << "escape walk " << src << " -> " << dst
                << " did not terminate in " << n << " hops";
        }
    }
}

TEST_P(TopologyWall, EscapeCdgIsAcyclic)
{
    const auto topo = build();
    const SimConfig cfg = config();
    const verify::EscapeCdgReport rep =
        verify::checkEscapeCdg(*topo, cfg.escapeVcs);
    EXPECT_TRUE(rep.acyclic) << rep.diagnosis;
    EXPECT_GT(rep.channels, 0u);
    EXPECT_EQ(rep.walks, static_cast<std::size_t>(topo->nodes()) *
                             (topo->nodes() - 1));
    // The minimum the family's deadlock argument needs must also hold
    // (fewer classes than minEscapeVcs() is refused by validate()).
    const verify::EscapeCdgReport atMin =
        verify::checkEscapeCdg(*topo, topo->minEscapeVcs());
    EXPECT_TRUE(atMin.acyclic) << atMin.diagnosis;
}

TEST_P(TopologyWall, AllPairsDeliveryOnLiveNetwork)
{
    SimConfig cfg = config();
    cfg.protocol = Protocol::TwoPhase;
    cfg.validate();
    Network net(cfg);
    net.setMeasuring(true);
    const int n = net.topo().nodes();
    std::uint64_t offered = 0;
    for (NodeId src = 0; src < n; ++src) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (src == dst)
                continue;
            // The injection queue holds a handful of messages per
            // node; step the network until this offer is accepted.
            Cycle spin = 0;
            while (!net.offerMessage(src, dst)) {
                net.step();
                ASSERT_LT(++spin, 200000u)
                    << "offer " << src << " -> " << dst
                    << " never accepted";
            }
            ++offered;
        }
        // Drain per source so the idle network never saturates and a
        // wedge shows up as this bounded loop failing, not a hang.
        ASSERT_TRUE(test::runToQuiescent(net, 200000))
            << "wedged draining messages from source " << src;
    }
    EXPECT_EQ(net.counters().delivered, offered);
    EXPECT_EQ(net.counters().dropped, 0u);
    EXPECT_EQ(net.counters().lost, 0u);
}

TEST_P(TopologyWall, LoadedFaultFreeDrainWithCwgArmed)
{
    SimConfig cfg = config();
    cfg.protocol = Protocol::TwoPhase;
    cfg.load = 0.1;
    cfg.verifyCwg = true;  // Theorem 3 violations panic the run
    cfg.validate();
    Network net(cfg);
    Injector inj(net);
    net.setMeasuring(true);
    for (Cycle c = 0; c < 3000; ++c) {
        inj.step();
        net.step();
    }
    ASSERT_TRUE(test::runToQuiescent(net, 200000)) << "drain wedged";
    EXPECT_GT(net.counters().delivered, 0u);
    EXPECT_EQ(net.counters().lost, 0u);
    assertConsistent(net);
}

std::vector<TopologyKind>
allKinds()
{
    std::vector<TopologyKind> kinds;
    for (const TopologyEntry &e : topologyRegistry())
        kinds.push_back(e.kind);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(Registry, TopologyWall,
                         ::testing::ValuesIn(allKinds()), wallName);

} // namespace
} // namespace tpnet
