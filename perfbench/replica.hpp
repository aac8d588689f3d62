/**
 * @file
 * Traced replicas of the library's two driver loops.
 *
 * tracedSimulatorRun() copies Simulator::run (src/core/simulator.cpp)
 * and tracedCampaign() copies chaos::runCampaign
 * (src/chaos/campaign.cpp, without checkpointing and test hooks). Both
 * keep the library's call order exactly, so their results are
 * bit-identical to the library calls, and time every call into a
 * layer's public function from the outside. The difference between a
 * traced and an untraced pass is the tracing overhead.
 */

#ifndef TPNET_PERFBENCH_REPLICA_HPP
#define TPNET_PERFBENCH_REPLICA_HPP

#include <cstdint>
#include <vector>

#include "chaos/campaign.hpp"
#include "metrics/collector.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"

namespace perfbench {

/**
 * Host seconds and call counts per layer, summed over the items of a
 * pass. The layers and `other` (driver code between them: loop
 * conditions and the drain check, config checks, construction of the
 * injector, oracle and watchdog, result assembly) partition each traced
 * item's time.
 */
struct LayerTimes
{
    double setup = 0;     ///< core.setup: Network(cfg)
    double traffic = 0;   ///< traffic: Injector::step
    double network = 0;   ///< core.network: Network::step
    double engine = 0;    ///< core.engine: idle/nextInternalEvent/skipTo
    double obs = 0;       ///< obs: MetricsRegistry::tick/skipIdle
    double schedule = 0;  ///< chaos.schedule: FaultSchedule::apply
    double watchdog = 0;  ///< chaos.watchdog: observe/skipTo
    double audit = 0;     ///< chaos.audit: the two finalCheck calls
    double other = 0;

    std::uint64_t setupCalls = 0;
    std::uint64_t trafficCalls = 0;
    std::uint64_t engineCalls = 0;
    std::uint64_t obsCalls = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t watchdogCalls = 0;
    std::uint64_t auditCalls = 0;

    std::uint64_t skippedCycles = 0;
    /// Host microseconds of every Network::step call, in call order.
    std::vector<float> stepUs;

    double
    covered() const
    {
        return setup + traffic + network + engine + obs + schedule +
               watchdog + audit;
    }

    /** Host seconds of the traced items, whole. */
    double loop() const { return covered() + other; }
};

/** Traced copy of Simulator(cfg).run(replication). */
tpnet::RunResult tracedSimulatorRun(const tpnet::SimConfig &cfg,
                                    std::uint64_t replication,
                                    LayerTimes &layers);

/**
 * Traced copy of chaos::runCampaign(spec). runCampaign reports no
 * message latency, so the replica's delivery oracle adds the latency of
 * every delivered message (creation to tail delivery, in cycles) to
 * @p latency when given.
 */
tpnet::chaos::CampaignResult
tracedCampaign(const tpnet::chaos::CampaignSpec &spec, LayerTimes &layers,
               tpnet::RunningStat *latency = nullptr);

} // namespace perfbench

#endif // TPNET_PERFBENCH_REPLICA_HPP
