/** @file Tests for the Section 3.0 theorem bounds and fault builders. */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/analytic.hpp"
#include "routing/bounds.hpp"
#include "topology/torus.hpp"

namespace tpnet {
namespace {

TEST(Theorem1, NoBacktrackBelowThreshold)
{
    // Fewer than 2n - 1 faults can never force a backtrack.
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(0, 2), 0);
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(2, 2), 0);
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(4, 3), 0);
}

TEST(Theorem1, StraightAlleyFormula)
{
    // b = (f - 1) div (2n - 2); n = 2: first backtrack at f = 3, one
    // more per 2 additional faults.
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(3, 2), 1);
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(4, 2), 1);
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(5, 2), 2);
    EXPECT_EQ(bounds::maxConsecutiveBacktracks(7, 2), 3);
}

TEST(Theorem1, TurnAlleyFormula)
{
    EXPECT_EQ(bounds::maxConsecutiveBacktracksTurn(3, 2), 1);
    EXPECT_EQ(bounds::maxConsecutiveBacktracksTurn(4, 2), 2);
    EXPECT_EQ(bounds::maxConsecutiveBacktracksTurn(6, 2), 3);
}

TEST(Theorem1, InverseRelation)
{
    // f = 2n - 1 + (b - 1)(2n - 2) inverts the straight-alley bound.
    for (int n = 2; n <= 4; ++n) {
        for (int b = 1; b <= 5; ++b) {
            const int f = bounds::faultsForBacktracks(b, n);
            EXPECT_EQ(bounds::maxConsecutiveBacktracks(f, n), b);
            EXPECT_EQ(bounds::maxConsecutiveBacktracks(f - 1, n), b - 1);
        }
    }
}

TEST(Theorem2, Constants)
{
    EXPECT_EQ(analytic::theorem2Misroutes, 6);
    EXPECT_EQ(analytic::theorem2Backtracks, 3);
}

TEST(AlleyFaults, BuildsDeadEndCorridor)
{
    TorusTopology t(8, 2);
    const NodeId entry = 0;
    const auto failed = bounds::alleyFaults(t, entry, 2);
    // Two corridor nodes * 2 side exits (n = 2) + the end cap.
    EXPECT_EQ(failed.size(), 5u);

    // The corridor nodes themselves stay healthy.
    NodeId walk = entry;
    for (int i = 0; i < 2; ++i) {
        walk = t.neighbor(walk, portOf(0, Dir::Plus));
        EXPECT_EQ(std::count(failed.begin(), failed.end(), walk), 0);
    }
    // The end cap is failed.
    EXPECT_EQ(std::count(failed.begin(), failed.end(),
                         t.neighbor(walk, portOf(0, Dir::Plus))), 1);
}

TEST(AlleyFaults, FaultCountMatchesTheorem1Premise)
{
    // Forcing b consecutive backtracks takes 2n-1 + (b-1)(2n-2) faults:
    // the alley builder realizes exactly that count for n = 2.
    TorusTopology t(16, 2);
    for (int b = 1; b <= 4; ++b) {
        const auto failed = bounds::alleyFaults(t, 0, b);
        EXPECT_EQ(static_cast<int>(failed.size()),
                  bounds::faultsForBacktracks(b, 2));
    }
}

TEST(BlockedDestination, FailsInPlaneNeighborsExceptOpen)
{
    TorusTopology t(8, 2);
    const NodeId dst = 3 + 8 * 3;
    const int open = portOf(0, Dir::Minus);
    const auto failed = bounds::blockedDestinationFaults(t, dst, open);
    EXPECT_EQ(failed.size(), 3u);
    EXPECT_EQ(std::count(failed.begin(), failed.end(),
                         t.neighbor(dst, open)), 0);
    EXPECT_EQ(std::count(failed.begin(), failed.end(),
                         t.neighbor(dst, portOf(0, Dir::Plus))), 1);
    EXPECT_EQ(std::count(failed.begin(), failed.end(),
                         t.neighbor(dst, portOf(1, Dir::Plus))), 1);
    EXPECT_EQ(std::count(failed.begin(), failed.end(),
                         t.neighbor(dst, portOf(1, Dir::Minus))), 1);
}

TEST(BoundsDeath, AlleyMustFitRing)
{
    TorusTopology t(4, 2);
    EXPECT_DEATH(bounds::alleyFaults(t, 0, 3), "alley depth");
}

} // namespace
} // namespace tpnet
