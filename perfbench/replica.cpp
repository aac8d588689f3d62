#include "replica.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "chaos/oracle.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/log.hpp"
#include "traffic/injector.hpp"

namespace perfbench {

using namespace tpnet;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Splits an item's host time into consecutive laps, each charged to the
 * layer whose call it ends: one clock read per call, and no gap between
 * laps, so every layer's time includes its share of the clock reads.
 * Each loop iteration starts with a lap charged to `other`, so the
 * driver's own loop code (loop conditions, the drain check) is not
 * booked to the first layer call of the iteration.
 */
class Laps
{
  public:
    Laps() : last_(Clock::now()) {}

    /** Charges the time since the previous lap to @p acc. */
    double
    charge(double &acc)
    {
        const Clock::time_point t = Clock::now();
        const double s = std::chrono::duration<double>(t - last_).count();
        last_ = t;
        acc += s;
        return s;
    }

    /** Charges one Network::step call, which also keeps its sample. */
    void
    chargeStep(LayerTimes &layers)
    {
        layers.stepUs.push_back(
            static_cast<float>(charge(layers.network) * 1e6));
    }

  private:
    Clock::time_point last_;
};

/** The campaign's delivery oracle, also recording message latency. */
class LatencyOracle : public chaos::DeliveryOracle
{
  public:
    LatencyOracle(Network &net, RunningStat *latency)
        : DeliveryOracle(net), latency_(latency)
    {
    }

    void
    messageTerminal(Cycle now, const Message &msg,
                    MsgOutcome outcome) override
    {
        if (latency_ && outcome == MsgOutcome::Delivered)
            latency_->add(static_cast<double>(msg.deliveredAt - msg.created));
        DeliveryOracle::messageTerminal(now, msg, outcome);
    }

  private:
    RunningStat *latency_;
};

} // namespace

RunResult
tracedSimulatorRun(const SimConfig &base, std::uint64_t replication,
                   LayerTimes &layers)
{
    Laps laps;
    base.validate();  // Simulator's constructor
    SimConfig cfg = base;
    cfg.seed = base.seed + 0x9e3779b97f4a7c15ull * (replication + 1);
    laps.charge(layers.other);

    Network net(cfg);
    laps.charge(layers.setup);
    ++layers.setupCalls;
    Injector inj(net);
    obs::MetricsRegistry registry(net, cfg.metricsPeriod);

    const double horizon = static_cast<double>(cfg.warmup + cfg.measure);
    if (cfg.dynamicNodeFaults > 0.0) {
        net.setDynamicFaultProcess(cfg.dynamicNodeFaults / horizon,
                                   static_cast<int>(std::lround(
                                       cfg.dynamicNodeFaults)));
    }
    if (cfg.dynamicLinkFaults > 0.0) {
        net.setDynamicLinkFaultProcess(
            cfg.dynamicLinkFaults / horizon,
            static_cast<int>(std::lround(cfg.dynamicLinkFaults)));
    }
    if (cfg.intermittentFaults > 0.0) {
        net.setIntermittentLinkFaultProcess(
            cfg.intermittentFaults / horizon,
            static_cast<int>(std::lround(cfg.intermittentFaults)),
            static_cast<Cycle>(cfg.intermittentDownCycles));
    }
    laps.charge(layers.other);

    auto injectAndStep = [&] {
        laps.charge(layers.other);
        inj.step();
        laps.charge(layers.traffic);
        ++layers.trafficCalls;
        net.step();
        laps.chargeStep(layers);
    };
    auto skipIdle = [&](Cycle phaseEnd, bool sampling) {
        Cycle skipped = 0;
        if (inj.inert() && net.eventEngine() && net.idle()) {
            const Cycle target = std::min(phaseEnd, net.nextInternalEvent());
            if (target > net.now()) {
                skipped = target - net.now();
                net.skipTo(target);
            }
        }
        laps.charge(layers.engine);
        ++layers.engineCalls;
        layers.skippedCycles += skipped;
        if (skipped > 0 && sampling) {
            registry.skipIdle(net, skipped);
            laps.charge(layers.obs);
            ++layers.obsCalls;
        }
    };

    for (const Cycle end = cfg.warmup; net.now() < end;) {
        injectAndStep();
        skipIdle(end, false);
    }

    net.setMeasuring(true);
    for (const Cycle end = cfg.warmup + cfg.measure; net.now() < end;) {
        injectAndStep();
        registry.tick(net);
        laps.charge(layers.obs);
        ++layers.obsCalls;
        skipIdle(end, true);
    }
    net.setMeasuring(false);

    for (const Cycle end = cfg.warmup + cfg.measure + cfg.drain;
         net.now() < end;) {
        const Counters &k = net.counters();
        if (k.measuredDelivered + k.measuredDropped >=
                k.measuredGenerated &&
            k.e2ePending == 0) {
            break;
        }
        injectAndStep();
        skipIdle(end, false);
    }

    RunResult result = deriveResult(net.counters(), cfg.load, cfg.nodes(),
                                    cfg.measure);
    result.vc = registry.summary();
    result.degenerate = cfg.trafficArmed() && inj.offered() == 0;
    laps.charge(layers.other);
    return result;
}

chaos::CampaignResult
tracedCampaign(const chaos::CampaignSpec &spec, LayerTimes &layers,
               RunningStat *latency)
{
    using namespace chaos;
    if (spec.injectSkipKillBug || spec.checkpointEvery > 0 ||
        !spec.checkpointPath.empty() || !spec.restorePath.empty())
        tpnet_panic("the traced campaign copies the plain run only");

    Laps laps;
    SimConfig cfg = spec.cfg;
    cfg.seed = spec.seed;
    cfg.watchdog = 0;
    if (spec.verifyCwg)
        cfg.verifyCwg = true;
    cfg.validate();

    CampaignResult result;
    result.seed = spec.seed;
    laps.charge(layers.other);

    Network net(cfg);
    laps.charge(layers.setup);
    ++layers.setupCalls;

    Rng faultRng = Rng(spec.seed ^ 0xC4A0C4A0C4A0C4A0ull).split();
    FaultSchedule schedule;
    if (!spec.scriptedFaults.empty()) {
        for (const FaultEvent &ev : spec.scriptedFaults)
            schedule.add(ev);
    } else {
        ScheduleSpec faults = spec.faults;
        if (faults.horizon > spec.injectCycles)
            faults.horizon = spec.injectCycles;
        schedule = FaultSchedule::randomized(faults, faultRng);
    }

    LatencyOracle oracle(net, latency);
    Watchdog watchdog(net, spec.watchdog);
    Injector injector(net);
    net.attachTrace(&oracle);
    laps.charge(layers.other);

    enum : std::uint32_t {
        TokFault,
        TokNet,
        TokWatchdog,
        TokPhaseEnd,
        TokCount,
    };
    WakeupQueue wake;
    auto skipAhead = [&](Cycle phaseEnd, bool draining) {
        Cycle target = cycleNever;
        Cycle now = net.now();
        if (injector.inert() && net.eventEngine() && net.idle() &&
            !watchdog.deadlocked() && !(draining && net.quiescent())) {
            wake.reset(TokCount);
            wake.schedule(TokPhaseEnd, phaseEnd);
            wake.schedule(TokFault, schedule.nextEventAt());
            wake.schedule(TokNet, net.nextInternalEvent());
            const Cycle wd = watchdog.nextDeadline();
            if (wd != cycleNever)
                wake.schedule(TokWatchdog, wd > now + 1 ? wd - 1 : now);
            target = wake.nextAt();
            if (target != cycleNever && target > now) {
                layers.skippedCycles += target - now;
                net.skipTo(target);
            }
        }
        laps.charge(layers.engine);
        ++layers.engineCalls;
        if (target == cycleNever || target <= now)
            return;
        watchdog.skipTo(target);
        laps.charge(layers.watchdog);
        ++layers.watchdogCalls;
    };
    auto iterate = [&] {
        laps.charge(layers.other);
        schedule.apply(net, faultRng);
        laps.charge(layers.schedule);
        ++layers.scheduleCalls;
        injector.step();
        laps.charge(layers.traffic);
        ++layers.trafficCalls;
        net.step();
        laps.chargeStep(layers);
        watchdog.observe();
        laps.charge(layers.watchdog);
        ++layers.watchdogCalls;
    };

    const Cycle injectEnd = spec.injectCycles;
    while (net.now() < injectEnd && !watchdog.deadlocked()) {
        iterate();
        skipAhead(injectEnd, false);
    }
    injector.stop();

    const Cycle drainEnd = net.now() + spec.drainCycles;
    while (net.now() < drainEnd &&
           !(net.quiescent() && !injector.repliesPending()) &&
           !watchdog.deadlocked()) {
        iterate();
        skipAhead(drainEnd, true);
    }

    result.quiescent = net.quiescent();
    result.cycles = net.now();
    result.faultsFired = schedule.fired();
    result.faultsSkipped = schedule.skipped();
    result.firedEvents = schedule.firedEvents();
    laps.charge(layers.other);

    watchdog.finalCheck();
    oracle.finalCheck();
    laps.charge(layers.audit);
    layers.auditCalls += 2;

    result.violations = watchdog.violations();
    for (const std::string &v : oracle.violations())
        result.violations.push_back(v);
    if (const verify::CwgTracker *cwg = net.cwg()) {
        result.cwgCycles = cwg->cyclesDetected();
        result.cwgBenign = cwg->benignCycles();
        result.cwgViolations = cwg->violations().size();
        result.cwgWarnings = cwg->warnings().size();
        for (const verify::CwgCycle &c : cwg->violations()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.violations.push_back(os.str());
        }
        for (const verify::CwgCycle &c : cwg->warnings()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.warnings.push_back(os.str());
        }
    }
    if (!result.quiescent && !watchdog.deadlocked()) {
        std::ostringstream os;
        os << "drain budget (" << spec.drainCycles
           << " cycles) exhausted with " << net.activeMessages()
           << " messages still live";
        result.violations.push_back(os.str());
    }
    if (cfg.trafficArmed() && injector.offered() == 0) {
        result.degenerate = true;
        result.violations.push_back(
            "traffic: degenerate workload: 0 messages offered over " +
            std::to_string(net.now()) + " cycles with traffic armed");
    }

    for (const Network::HealRecord &h : net.healLog())
        result.healEvents.push_back(
            {h.at, h.knotHash, h.victim, h.attempt});

    net.attachTrace(nullptr);
    result.messages = net.counters().generated;
    result.counters = net.counters();
    result.passed = result.violations.empty();
    laps.charge(layers.other);
    return result;
}

} // namespace perfbench
