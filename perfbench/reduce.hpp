/**
 * @file
 * The benchmark's reducers: result digests, the correctness verdict of
 * one item, medians and tail percentiles, and the metric-name grammar.
 * main.cpp's --self-test exercises each of them.
 */

#ifndef TPNET_PERFBENCH_REDUCE_HPP
#define TPNET_PERFBENCH_REDUCE_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/report.hpp"
#include "metrics/collector.hpp"

namespace perfbench {

/** FNV-1a 64 over the bytes of @p s. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of every reported field of a Simulator replication. */
inline std::uint64_t
resultDigest(const tpnet::RunResult &r)
{
    const tpnet::Counters &c = r.counters;
    std::ostringstream os;
    os.precision(17);
    os << r.throughput << ' ' << r.avgLatency << ' ' << r.p95Latency << ' '
       << r.deliveredFraction << ' ' << r.undeliverable << ' '
       << r.degenerate << ' ' << c.generated << ' ' << c.notAccepted << ' '
       << c.delivered << ' ' << c.dropped << ' ' << c.lost << ' '
       << c.retransmits << ' ' << c.retriesScheduled << ' '
       << c.headerMoves << ' ' << c.backtracks << ' ' << c.misroutes << ' '
       << c.detoursBuilt << ' ' << c.setupAborts << ' ' << c.dataCrossings
       << ' ' << c.ctrlCrossings << ' ' << c.posAcks << ' ' << c.negAcks
       << ' ' << c.killFlits << ' ' << c.msgAcks << ' '
       << c.dataFlitsDelivered << ' ' << c.measuredGenerated << ' '
       << c.measuredDelivered << ' ' << c.measuredDropped << ' '
       << c.windowDataFlits << ' ' << c.latency.count() << ' '
       << c.latency.mean() << ' ' << r.vc.samples << ' '
       << r.vc.occupancy.mean() << ' ' << r.vc.muxDegree.mean() << ' '
       << r.vc.dataUtil.mean() << ' ' << r.vc.ctrlUtil.mean() << ' '
       << r.vc.rcuDepth.mean();
    return fnv1a(os.str());
}

/** Digest of a campaign: its full campaign JSON record. */
inline std::uint64_t
resultDigest(const tpnet::chaos::CampaignResult &r)
{
    return fnv1a(tpnet::chaos::campaignJson(r));
}

/** What one item produced, from the library call and, if run, the
 *  traced replica. */
struct ItemCheck
{
    std::uint64_t library = 0;
    std::optional<std::uint64_t> replica;
    std::optional<std::uint64_t> expected;  ///< recorded for this seed
    /// Empty when the run is healthy; otherwise why it is not
    /// (violation, no quiescence, degenerate traffic).
    std::string health;
};

/** Empty when the item is correct; otherwise the first reason it is
 *  not. Every non-empty verdict counts in failed_frac. */
inline std::string
verdict(const ItemCheck &c)
{
    if (!c.health.empty())
        return c.health;
    if (c.replica && *c.replica != c.library)
        return "traced replica digest differs from the library call";
    if (c.expected && *c.expected != c.library)
        return "digest differs from the one recorded for this seed";
    return {};
}

inline std::uint64_t
countFailed(const std::vector<ItemCheck> &checks)
{
    std::uint64_t failed = 0;
    for (const ItemCheck &c : checks)
        failed += verdict(c).empty() ? 0 : 1;
    return failed;
}

/** Failed item runs over attempted ones: the benchmark's failed_frac. */
inline double
failedFrac(const std::vector<ItemCheck> &checks)
{
    return checks.empty() ? 0.0
                          : static_cast<double>(countFailed(checks)) /
                                static_cast<double>(checks.size());
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** A nearest-rank percentile together with the sample it rests on. */
struct Tail
{
    double percentile = 0;    ///< the percentile actually reported
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0;   ///< samples strictly ranked above it
};

/**
 * The @p wanted percentile (nearest rank) of @p v, lowered until at
 * least @p minBeyond samples rank above it. When that would fall below
 * the median (2 * minBeyond samples or fewer) there is no such tail:
 * the maximum is reported instead, with what lies beyond it (none).
 */
inline Tail
tailPercentile(std::vector<double> v, double wanted,
               std::size_t minBeyond = 10)
{
    Tail t;
    t.samples = v.size();
    if (v.empty()) {
        t.value = std::nan("");
        return t;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(wanted * static_cast<double>(n) - 1e-9));
    rank = n > 2 * minBeyond
               ? std::clamp<std::size_t>(rank, 1, n - minBeyond)
               : std::max(rank, n);
    t.value = v[rank - 1];
    t.percentile = static_cast<double>(rank) / static_cast<double>(n);
    t.beyond = n - rank;
    return t;
}

/** Benchmark metric names: a letter or digit, then up to 63 letters,
 *  digits, '_', '.' or '-'. */
inline bool
validMetricName(std::string_view s)
{
    if (s.empty() || s.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(s[0]))
        return false;
    return std::all_of(s.begin(), s.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

/** Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'. */
inline bool
validUnit(std::string_view s)
{
    if (s.empty() || s.size() > 16)
        return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '/' ||
               c == '%' || c == '.' || c == '-';
    });
}

} // namespace perfbench

#endif // TPNET_PERFBENCH_REDUCE_HPP
