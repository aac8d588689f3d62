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
#include <functional>

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
 * Fold replication results into a ReplicatedResult with the paper's
 * acceptance rule: consume @p run_rep(0), run_rep(1), ... in order and
 * stop as soon as both 95% CIs are within @p rel_bound of their means
 * (not before @p min_reps, never past @p max_reps).
 *
 * Both the lazy sequential loop (Simulator::runToConfidence) and the
 * speculative parallel sweeps (experiment.cpp, which precompute all
 * max_reps replications and then fold) call this one function, so the
 * two paths aggregate bit-identically.
 */
ReplicatedResult
foldReplications(const std::function<RunResult(std::size_t)> &run_rep,
                 std::size_t min_reps, std::size_t max_reps,
                 double rel_bound = 0.05);

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

    /**
     * Replicate until the 95% CIs of mean latency and throughput are
     * within @p rel_bound of their means (the paper's acceptance rule),
     * bounded by [@p min_reps, @p max_reps].
     */
    ReplicatedResult runToConfidence(std::size_t min_reps,
                                     std::size_t max_reps,
                                     double rel_bound = 0.05) const;

    const SimConfig &config() const { return cfg_; }

  private:
    SimConfig cfg_;
};

} // namespace tpnet

#endif // TPNET_CORE_SIMULATOR_HPP
