/**
 * @file
 * The benchmark's four workloads: how each item (one Simulator
 * replication or one chaos campaign) is configured from the workload
 * seed and the item index. See README.md for why each one exists.
 */

#ifndef TPNET_PERFBENCH_WORKLOADS_HPP
#define TPNET_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "chaos/campaign.hpp"
#include "sim/config.hpp"

namespace perfbench {

/** Which library entry point runs an item. */
enum class Kind { Simulator, Campaign };

struct Workload
{
    const char *name;
    Kind kind;
    /// Items in one pass: the fixed unit of work a run repeats. Campaign
    /// workloads run 200, so their p95 keeps 10 campaigns beyond it.
    int passItems;
    /// Host seconds of one untraced pass on a 4-vCPU 2.1 GHz Xeon VM;
    /// sets how many passes an untraced run makes (see untracedPasses).
    double passSeconds;
};

inline constexpr Workload kWorkloads[] = {
    {"uniform_sat", Kind::Simulator, 2, 2.2},
    {"fault_setup", Kind::Simulator, 8, 2.0},
    {"chaos_closedloop", Kind::Campaign, 200, 7.0},
};

inline const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** SplitMix64 finalizer: decorrelates nearby workload seeds. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Base configuration of a Simulator workload. Item i is
 * Simulator(cfg).run(i): the replication index picks the item's own
 * seed exactly as runToConfidence does.
 */
tpnet::SimConfig simulatorConfig(const Workload &w, std::uint64_t seed);

/** Campaigns of one run take consecutive seeds, as tpnet_verify does. */
inline std::uint64_t
campaignSeed(std::uint64_t seed, std::uint64_t item)
{
    return mix(seed) + item;
}

/** Spec of the campaign workload @p w's campaign with seed @p campaignSeed. */
tpnet::chaos::CampaignSpec campaignSpec(const Workload &w,
                                        std::uint64_t campaignSeed);

/** Network configuration item @p item constructs (set-up timing). */
tpnet::SimConfig itemNetworkConfig(const Workload &w, std::uint64_t seed,
                                   std::uint64_t item);

} // namespace perfbench

#endif // TPNET_PERFBENCH_WORKLOADS_HPP
