#include "core/simulator.hpp"

#include <cmath>

#include "core/network.hpp"
#include "core/run_loop.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/stats.hpp"
#include "traffic/injector.hpp"

namespace tpnet {

Simulator::Simulator(const SimConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();
}

void
armFaultProcesses(Network &net)
{
    const SimConfig &cfg = net.config();
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
}

RunResult
Simulator::run(std::uint64_t replication, TraceSink *sink) const
{
    SimConfig cfg = cfg_;
    // Decorrelate replications while keeping each one reproducible.
    cfg.seed = cfg_.seed + 0x9e3779b97f4a7c15ull * (replication + 1);

    Network net(cfg);
    Injector inj(net);
    if (sink)
        net.attachTrace(sink);
    obs::MetricsRegistry registry(net, cfg.metricsPeriod);

    armFaultProcesses(net);

    RunLoop loop(net, inj);
    loop.registry = &registry;
    loop.run(cfg.warmup);
    net.setMeasuring(true);
    loop.run(cfg.warmup + cfg.measure, true);
    net.setMeasuring(false);
    // Drain: keep background traffic flowing so tagged messages finish
    // under realistic contention, until every measured message is
    // resolved (and every closed-loop transaction has completed its
    // reply) or the drain budget runs out.
    const Counters &k = net.counters();
    loop.run(cfg.warmup + cfg.measure + cfg.drain, false, [&k] {
        return k.measuredDelivered + k.measuredDropped >=
                   k.measuredGenerated &&
               k.e2ePending == 0;
    });

    if (sink)
        net.attachTrace(nullptr);
    RunResult result = deriveResult(net.counters(), cfg.load, cfg.nodes(),
                                    cfg.measure);
    result.vc = registry.summary();
    // Traffic was armed yet not a single message was ever offered: the
    // pattern degenerated (e.g. every source self-maps on this
    // topology). Flag it so drivers cannot report a silent success.
    result.degenerate = cfg.trafficArmed() && inj.offered() == 0;
    return result;
}

ReplicatedResult
foldReplications(const std::function<RunResult(std::size_t)> &run_rep,
                 std::size_t min_reps, std::size_t max_reps,
                 double rel_bound)
{
    ReplicatedResult out;
    ReplicationStat lat(rel_bound);
    ReplicationStat thr(rel_bound);
    RunningStat p95;
    RunningStat dfrac;
    VcMetrics vcm;
    Counters counters;
    std::uint64_t undeliverable = 0;
    // Degenerate is sticky: any degenerate rep poisons the point.
    bool degenerate = false;
    RunResult last;

    std::size_t reps = 0;
    while (reps < max_reps) {
        last = run_rep(reps);
        ++reps;
        lat.add(last.avgLatency);
        thr.add(last.throughput);
        p95.add(last.p95Latency);
        dfrac.add(last.deliveredFraction);
        vcm.merge(last.vc);
        counters.merge(last.counters);
        undeliverable += last.undeliverable;
        degenerate = degenerate || last.degenerate;
        if (reps >= min_reps && lat.acceptable(min_reps) &&
            thr.acceptable(min_reps)) {
            out.converged = true;
            break;
        }
    }

    out.mean = last;
    out.mean.avgLatency = lat.mean();
    out.mean.throughput = thr.mean();
    out.mean.p95Latency = p95.mean();
    out.mean.deliveredFraction = dfrac.mean();
    out.mean.vc = vcm;
    out.mean.counters = counters;
    out.mean.undeliverable = undeliverable / reps;
    out.mean.degenerate = degenerate;
    out.latencyHw95 = lat.halfWidth95();
    out.throughputHw95 = thr.halfWidth95();
    out.replications = reps;
    return out;
}

ReplicatedResult
Simulator::runToConfidence(std::size_t min_reps, std::size_t max_reps,
                           double rel_bound) const
{
    return foldReplications([this](std::size_t rep) { return run(rep); },
                            min_reps, max_reps, rel_bound);
}

} // namespace tpnet
