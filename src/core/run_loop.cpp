#include "core/run_loop.hpp"

#include "chaos/fault_schedule.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "obs/metrics_registry.hpp"
#include "traffic/injector.hpp"

namespace tpnet {

namespace {

/** The wakeup sources an idle skip must not coast past. */
enum : std::uint32_t {
    TokPhaseEnd,
    TokNet,
    TokFault,
    TokWatchdog,
    TokCount,
};

} // namespace

void
RunLoop::run(Cycle end, bool sampling, const Stop &stop)
{
    while (net_.now() < end && !stopped(stop)) {
        if (schedule)
            schedule->apply(net_, *faultRng);
        inj_.step();
        net_.step();
        if (sampling && registry)
            registry->tick(net_);
        if (watchdog)
            watchdog->observe();
        skipIdle(end, sampling, stop);
    }
}

bool
RunLoop::stopped(const Stop &stop) const
{
    return (watchdog && watchdog->deadlocked()) || (stop && stop());
}

void
RunLoop::skipIdle(Cycle end, bool sampling, const Stop &stop)
{
    // Only a provably frozen system may skip. A stop that holds ends
    // the phase on this very cycle, which is part of the result, so it
    // vetoes the skip too.
    if (!net_.eventEngine() || !inj_.inert() || !net_.idle() ||
        stopped(stop)) {
        return;
    }
    const Cycle now = net_.now();
    wake_.reset(TokCount);
    wake_.schedule(TokPhaseEnd, end);
    wake_.schedule(TokNet, net_.nextInternalEvent());
    if (schedule)
        wake_.schedule(TokFault, schedule->nextEventAt());
    if (watchdog) {
        // observe() of iteration c sees cycle c+1: a deadline at
        // observe-value v means iteration v-1 must still execute.
        const Cycle wd = watchdog->nextDeadline();
        if (wd != cycleNever)
            wake_.schedule(TokWatchdog, wd > now + 1 ? wd - 1 : now);
    }
    const Cycle target = wake_.nextAt();
    if (target == cycleNever || target <= now)
        return;
    net_.skipTo(target);
    if (sampling && registry)
        registry->skipIdle(net_, target - now);
}

} // namespace tpnet
