/**
 * @file
 * RunLoop — the one driver loop every run of a Network steps through.
 *
 * Each iteration writes a due checkpoint, fires the faults due this
 * cycle, steps the injector and the network, then hands the new cycle
 * to the observers (metrics sampling, the chaos watchdog). Simulator
 * replications, chaos campaigns, trace recording and `tpnet_cli
 * --stats` are lists of phases over this loop; a participant a driver
 * does not use stays null.
 *
 * The loop owns the event engine's one idle-skip rule. The clock may
 * jump ahead only when the injector is inert, the network is idle and
 * the phase's stop predicate does not hold (a phase reports the cycle
 * it stopped on, so it never coasts past it). The jump lands on the
 * earliest WakeupQueue token: the phase end, the network's next
 * internal event, the next scheduled fault, the cycle before the
 * watchdog's next deadline, the next checkpoint boundary. The skipped
 * span is replayed into the registry and the watchdog, so a skipping
 * run is bit-identical to a stepped one.
 */

#ifndef TPNET_CORE_RUN_LOOP_HPP
#define TPNET_CORE_RUN_LOOP_HPP

#include <functional>

#include "core/engine.hpp"
#include "sim/types.hpp"

namespace tpnet {

class Injector;
class Network;
class Rng;

namespace chaos {
class FaultSchedule;
class Watchdog;
} // namespace chaos

namespace obs {
class MetricsRegistry;
} // namespace obs

/** Steps one Network (and its optional participants) phase by phase. */
class RunLoop
{
  public:
    RunLoop(Network &net, Injector &inj) : net_(net), inj_(inj) {}

    /// Fault timeline fired at the start of every iteration; open
    /// victims are drawn from @ref faultRng.
    chaos::FaultSchedule *schedule = nullptr;
    Rng *faultRng = nullptr;
    /// Observes every cycle; its deadlock verdict stops every phase.
    chaos::Watchdog *watchdog = nullptr;
    /// Ticked (and replayed over skips) in sampling phases only.
    obs::MetricsRegistry *registry = nullptr;
    /// With @ref checkpointEvery > 0, called at the start of every
    /// iteration whose cycle is a nonzero multiple of it.
    std::function<void()> checkpoint;
    Cycle checkpointEvery = 0;

    /** Early-stop predicate of a phase (empty: run to the end). */
    using Stop = std::function<bool()>;

    /**
     * Run one phase: iterate until the clock reaches the absolute cycle
     * @p end or @p stop holds. @p sampling ticks the metrics registry.
     */
    void run(Cycle end, bool sampling = false, const Stop &stop = {});

  private:
    bool stopped(const Stop &stop) const;
    void skipIdle(Cycle end, bool sampling, const Stop &stop);

    Network &net_;
    Injector &inj_;
    WakeupQueue wake_;
};

} // namespace tpnet

#endif // TPNET_CORE_RUN_LOOP_HPP
