/**
 * @file
 * Run-level simulation driver: warmup, measurement window, drain, and
 * the paper's replication methodology (independent replications until
 * the 95% confidence interval of the mean is within 5% of the mean,
 * Section 6.0).
 */

#ifndef TPNET_CORE_SIMULATOR_HPP
#define TPNET_CORE_SIMULATOR_HPP

#include <cstddef>

#include "metrics/collector.hpp"
#include "sim/config.hpp"

namespace tpnet {

class Network;
class TraceSink;

/**
 * Arm @p net's Bernoulli fault processes from its configuration: the
 * cfg.dynamicNodeFaults, dynamicLinkFaults and intermittentFaults
 * expected failures, each spread evenly over the warmup + measure
 * window. Every run of a configuration arms them through this call.
 */
void armFaultProcesses(Network &net);

/** Aggregate of several independent replications of one configuration. */
struct ReplicatedResult
{
    /// Scalar fields averaged over the replications the fold consumed;
    /// `counters` and `vc` are their exact sums (Counters::merge,
    /// VcMetrics::merge), not averages.
    RunResult mean;
    double latencyHw95 = 0;  ///< 95% CI half-width of the latency mean
    double throughputHw95 = 0;
    std::size_t replications = 0;
    bool converged = false;  ///< CI bound met before the replication cap
};

/**
 * Folds replication results, in replication order, with the paper's
 * acceptance rule: stop once both 95% CIs are within the relative bound
 * of their means (not before min_reps, never past max_reps).
 */
class ReplicationFold
{
  public:
    ReplicationFold(std::size_t min_reps, std::size_t max_reps,
                    double rel_bound = 0.05);

    /** Fold the next replication. @return true once the rule stops. */
    bool add(const RunResult &r);

    std::size_t count() const { return out_.replications; }

    /** The aggregate of every replication folded (at least one). */
    ReplicatedResult finish() const;

  private:
    std::size_t minReps_;
    std::size_t maxReps_;
    ReplicationStat lat_;
    ReplicationStat thr_;
    RunningStat p95_;
    RunningStat dfrac_;
    /// Counts, exact sums (counters, vc, undeliverable) and flags so
    /// far; finish() fills in the means.
    ReplicatedResult out_;
};

/** Runs complete simulations of one configuration. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg);

    /**
     * One full replication: warmup, measure, drain. @p replication
     * perturbs the seed so replications are independent. During the
     * measurement window a MetricsRegistry samples per-VC state every
     * cfg.metricsPeriod cycles into the result's VcMetrics. @p sink,
     * when given, observes every trace event of the run (recording,
     * oracles); it is detached before the network is destroyed.
     */
    RunResult run(std::uint64_t replication = 0,
                  TraceSink *sink = nullptr) const;

  private:
    SimConfig cfg_;
};

} // namespace tpnet

#endif // TPNET_CORE_SIMULATOR_HPP
