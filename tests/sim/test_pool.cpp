/** @file parallelFor: slot discipline, ordering, exception
 *  propagation, edge cases, and --jobs resolution. */

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/pool.hpp"

namespace tpnet {
namespace {

TEST(ResolveJobs, ExplicitRequestWins)
{
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ResolveJobs, EnvironmentFallback)
{
    ::setenv("TPNET_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5u);
    EXPECT_EQ(resolveJobs(-1), 5u);
    EXPECT_EQ(resolveJobs(2), 2u);  // explicit still wins
    ::setenv("TPNET_JOBS", "0", 1);
    EXPECT_GE(resolveJobs(0), 1u);  // not positive -> hardware threads
    for (const char *bad : {"garbage", "4x", ""}) {
        ::setenv("TPNET_JOBS", bad, 1);
        EXPECT_DEATH(resolveJobs(0), "TPNET_JOBS") << bad;
    }
    ::unsetenv("TPNET_JOBS");
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ParallelFor, ZeroIterationsIsANoOp)
{
    bool touched = false;
    parallelFor(0, 8, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, InlinePathRunsInIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(10, 1, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce)
{
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &h : hits)
        h = 0;
    parallelFor(kN, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, PropagatesTaskException)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](std::size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, MoreJobsThanWorkIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    for (auto &h : hits)
        h = 0;
    parallelFor(3, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

} // namespace
} // namespace tpnet
