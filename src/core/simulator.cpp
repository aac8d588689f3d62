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

ReplicationFold::ReplicationFold(std::size_t min_reps, std::size_t max_reps,
                                 double rel_bound)
    : minReps_(min_reps), maxReps_(max_reps), lat_(rel_bound),
      thr_(rel_bound)
{}

bool
ReplicationFold::add(const RunResult &r)
{
    RunResult &sum = out_.mean;
    ++out_.replications;
    lat_.add(r.avgLatency);
    thr_.add(r.throughput);
    p95_.add(r.p95Latency);
    dfrac_.add(r.deliveredFraction);
    sum.vc.merge(r.vc);
    sum.counters.merge(r.counters);
    sum.undeliverable += r.undeliverable;
    // Degenerate is sticky: any degenerate rep poisons the point.
    sum.degenerate = sum.degenerate || r.degenerate;
    sum.offeredLoad = r.offeredLoad;
    out_.converged =
        lat_.acceptable(minReps_) && thr_.acceptable(minReps_);
    return out_.converged || out_.replications >= maxReps_;
}

ReplicatedResult
ReplicationFold::finish() const
{
    ReplicatedResult out = out_;
    out.mean.avgLatency = lat_.mean();
    out.mean.throughput = thr_.mean();
    out.mean.p95Latency = p95_.mean();
    out.mean.deliveredFraction = dfrac_.mean();
    out.mean.undeliverable /= out.replications;
    out.latencyHw95 = lat_.halfWidth95();
    out.throughputHw95 = thr_.halfWidth95();
    return out;
}

} // namespace tpnet
