/** @file Unit and property tests for the k-ary n-cube torus topology. */

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "topology/express.hpp"
#include "topology/torus.hpp"

namespace tpnet {
namespace {

TEST(Torus, CoordinatesRoundTrip)
{
    TorusTopology t(8, 2);
    for (NodeId id = 0; id < t.nodes(); ++id) {
        OffsetVec coords{};
        for (int d = 0; d < t.n(); ++d)
            coords[d] = t.coord(id, d);
        EXPECT_EQ(t.nodeAt(coords), id);
    }
}

TEST(Torus, NeighborWrapsAround)
{
    TorusTopology t(4, 2);
    const NodeId origin = 0;
    EXPECT_EQ(t.coord(t.neighbor(origin, portOf(0, Dir::Minus)), 0), 3);
    EXPECT_EQ(t.coord(t.neighbor(origin, portOf(1, Dir::Minus)), 1), 3);
    EXPECT_EQ(t.coord(t.neighbor(origin, portOf(0, Dir::Plus)), 0), 1);
}

TEST(Torus, NeighborInverse)
{
    TorusTopology t(5, 3);
    for (NodeId id = 0; id < t.nodes(); ++id) {
        for (int port = 0; port < t.radix(); ++port) {
            const NodeId nbr = t.neighbor(id, port);
            EXPECT_EQ(t.neighbor(nbr, oppositePort(port)), id);
        }
    }
}

TEST(Torus, LinkIdRoundTrip)
{
    TorusTopology t(6, 2);
    for (NodeId id = 0; id < t.nodes(); ++id) {
        for (int port = 0; port < t.radix(); ++port) {
            const LinkId link = t.linkId(id, port);
            EXPECT_EQ(t.linkSrc(link), id);
            EXPECT_EQ(t.linkPort(link), port);
            EXPECT_EQ(t.linkDst(link), t.neighbor(id, port));
        }
    }
}

TEST(Torus, ReverseLinkIsInvolution)
{
    TorusTopology t(4, 3);
    for (LinkId link = 0; link < t.links(); ++link) {
        const LinkId rev = t.reverseLink(link);
        EXPECT_NE(rev, link);
        EXPECT_EQ(t.reverseLink(rev), link);
        EXPECT_EQ(t.linkSrc(rev), t.linkDst(link));
        EXPECT_EQ(t.linkDst(rev), t.linkSrc(link));
    }
}

TEST(Torus, OffsetsAreMinimal)
{
    TorusTopology t(8, 2);
    const OffsetVec off = t.offsets(0, 5);  // ring distance min(5, 3)
    EXPECT_EQ(off[0], -3);
    EXPECT_EQ(t.distance(0, 5), 3);
}

TEST(Torus, OffsetTieBreaksPositive)
{
    TorusTopology t(8, 1);
    // Distance exactly k/2 = 4: both directions minimal; ties go +.
    EXPECT_EQ(t.offsets(0, 4)[0], 4);
}

TEST(Torus, DistanceSymmetric)
{
    TorusTopology t(7, 2);
    for (NodeId a = 0; a < t.nodes(); a += 5) {
        for (NodeId b = 0; b < t.nodes(); b += 3)
            EXPECT_EQ(t.distance(a, b), t.distance(b, a));
    }
}

TEST(Torus, DistanceTriangleInequality)
{
    TorusTopology t(6, 2);
    for (NodeId a = 0; a < t.nodes(); a += 7) {
        for (NodeId b = 0; b < t.nodes(); b += 5) {
            for (NodeId c = 0; c < t.nodes(); c += 11) {
                EXPECT_LE(t.distance(a, c),
                          t.distance(a, b) + t.distance(b, c));
            }
        }
    }
}

TEST(Torus, ProfitablePortsMatchOffsets)
{
    TorusTopology t(8, 2);
    const OffsetVec off = t.offsets(0, 3 + 8 * 6);  // (+3, -2)
    EXPECT_EQ(off[0], 3);
    EXPECT_EQ(off[1], -2);
    const auto ports = t.profitablePorts(off);
    ASSERT_EQ(ports.size(), 2u);
    EXPECT_TRUE(t.portProfitable(off, portOf(0, Dir::Plus)));
    EXPECT_TRUE(t.portProfitable(off, portOf(1, Dir::Minus)));
    EXPECT_FALSE(t.portProfitable(off, portOf(0, Dir::Minus)));
    EXPECT_FALSE(t.portProfitable(off, portOf(1, Dir::Plus)));
}

TEST(Torus, AdvanceReducesProfitableOffset)
{
    TorusTopology t(8, 2);
    OffsetVec off = t.offsets(0, 3);
    off = t.advance(off, portOf(0, Dir::Plus));
    EXPECT_EQ(off[0], 2);
}

TEST(Torus, AdvanceAgainstOffsetWrapsMinimal)
{
    TorusTopology t(4, 1);
    // Offset +2 on a 4-ring: moving minus makes the other direction
    // shorter (distance 1 the other way).
    OffsetVec off{};
    off[0] = 2;
    off = t.advance(off, portOf(0, Dir::Minus));
    EXPECT_EQ(off[0], -1);
}

TEST(Torus, AdvanceConsistentWithOffsets)
{
    TorusTopology t(8, 2);
    const NodeId dst = 3 + 8 * 5;
    NodeId cur = 0;
    OffsetVec off = t.offsets(cur, dst);
    // Walk an arbitrary (even unprofitable) port sequence and check the
    // incremental offsets match a fresh computation at each step.
    const int walk[] = {0, 0, 1, 2, 3, 2, 0, 1, 1, 3};
    for (int port : walk) {
        off = t.advance(off, port);
        cur = t.neighbor(cur, port);
        EXPECT_EQ(off, t.offsets(cur, dst));
    }
}

TEST(Torus, DatelinePlusDirection)
{
    TorusTopology t(8, 2);
    OffsetVec coords{};
    coords[0] = 7;
    coords[1] = 3;
    const NodeId edge = t.nodeAt(coords);
    EXPECT_TRUE(t.crossesDateline(edge, portOf(0, Dir::Plus)));
    EXPECT_FALSE(t.crossesDateline(edge, portOf(1, Dir::Plus)));
    EXPECT_FALSE(t.crossesDateline(0, portOf(0, Dir::Plus)));
}

TEST(Torus, DatelineMinusDirection)
{
    TorusTopology t(8, 2);
    EXPECT_TRUE(t.crossesDateline(0, portOf(0, Dir::Minus)));
    EXPECT_TRUE(t.crossesDateline(0, portOf(1, Dir::Minus)));
    OffsetVec coords{};
    coords[0] = 1;
    EXPECT_FALSE(t.crossesDateline(t.nodeAt(coords),
                                   portOf(0, Dir::Minus)));
}

TEST(Torus, PortHelpers)
{
    EXPECT_EQ(portOf(0, Dir::Plus), 0);
    EXPECT_EQ(portOf(0, Dir::Minus), 1);
    EXPECT_EQ(portOf(2, Dir::Plus), 4);
    EXPECT_EQ(dimOf(5), 2);
    EXPECT_EQ(dirOf(5), Dir::Minus);
    EXPECT_EQ(oppositePort(4), 5);
    EXPECT_EQ(oppositePort(5), 4);
    EXPECT_EQ(stepOf(Dir::Minus), -1);
}

/** Geometry sweep: distances consistent with per-ring minimal moves. */
class TorusGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(TorusGeometry, DistanceMatchesOffsetSum)
{
    const auto [k, n] = GetParam();
    TorusTopology t(k, n);
    const NodeId a = t.nodes() / 3;
    for (NodeId b = 0; b < t.nodes(); ++b) {
        const OffsetVec off = t.offsets(a, b);
        int sum = 0;
        for (int d = 0; d < n; ++d) {
            EXPECT_LE(std::abs(off[d]), k / 2);
            sum += std::abs(off[d]);
        }
        EXPECT_EQ(sum, t.distance(a, b));
    }
}

TEST_P(TorusGeometry, DiameterIsMaxDistance)
{
    const auto [k, n] = GetParam();
    TorusTopology t(k, n);
    int max_dist = 0;
    for (NodeId b = 0; b < t.nodes(); ++b)
        max_dist = std::max(max_dist, t.distance(0, b));
    EXPECT_EQ(max_dist, t.diameter());
}

INSTANTIATE_TEST_SUITE_P(Geometries, TorusGeometry,
                         ::testing::Values(std::make_tuple(4, 2),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(8, 2),
                                           std::make_tuple(16, 2),
                                           std::make_tuple(4, 3),
                                           std::make_tuple(3, 4)));

/**
 * The order profitablePorts produced when it returned a std::vector:
 * the generation order, then std::stable_sort by remaining distance in
 * the port's dimension, largest first.
 */
std::vector<int>
legacyOrder(const std::vector<int> &generated,
            const std::function<int(int)> &remaining)
{
    std::vector<int> ports = generated;
    std::stable_sort(ports.begin(), ports.end(), [&](int a, int b) {
        return remaining(a) > remaining(b);
    });
    return ports;
}

std::vector<int>
asVector(const PortList &ports)
{
    return std::vector<int>(ports.begin(), ports.end());
}

TEST(Torus, ProfitablePortListKeepsLegacyVectorOrder)
{
    const TorusTopology t(16, 2);
    for (NodeId cur = 0; cur < t.nodes(); ++cur) {
        for (NodeId dst = 0; dst < t.nodes(); ++dst) {
            const OffsetVec off = t.offsets(cur, dst);
            std::vector<int> generated;
            for (int d = 0; d < t.n(); ++d) {
                for (Dir dir : {Dir::Plus, Dir::Minus}) {
                    if (t.portProfitable(off, portOf(d, dir)))
                        generated.push_back(portOf(d, dir));
                }
            }
            const std::vector<int> expect =
                legacyOrder(generated, [&](int port) {
                    return std::abs(off[dimOf(port)]);
                });
            ASSERT_EQ(asVector(t.profitablePorts(cur, dst)), expect)
                << cur << " -> " << dst;
        }
    }
}

TEST(Torus, ExpressProfitablePortListKeepsLegacyVectorOrder)
{
    const int k = 12;
    const int n = 2;
    const ExpressCubeTopology t(k, n, 3);
    for (NodeId cur = 0; cur < t.nodes(); ++cur) {
        for (NodeId dst = 0; dst < t.nodes(); ++dst) {
            // Remaining distance in one dimension: the express-cube hop
            // distance to the node that already agrees with dst there.
            const auto remaining = [&](int port) {
                const int dim =
                    port >= 2 * n ? (port - 2 * n) / 2 : dimOf(port);
                OffsetVec c{};
                for (int d = 0; d < n; ++d)
                    c[d] = t.coord(cur, d);
                c[dim] = t.coord(dst, dim);
                return t.distance(cur, t.nodeAt(c));
            };
            std::vector<int> generated;
            for (int d = 0; d < n; ++d) {
                for (int port : {2 * n + 2 * d, 2 * n + 2 * d + 1,
                                 portOf(d, Dir::Plus), portOf(d, Dir::Minus)}) {
                    if (t.portProfitable(cur, port, dst))
                        generated.push_back(port);
                }
            }
            ASSERT_EQ(asVector(t.profitablePorts(cur, dst)),
                      legacyOrder(generated, remaining))
                << cur << " -> " << dst;
        }
    }
}

} // namespace
} // namespace tpnet
