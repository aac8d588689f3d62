/**
 * @file
 * Experiment harness: load sweeps, fault sweeps and replicated points,
 * the building blocks of every figure in the paper's evaluation (Section
 * 6.0), all run as one sweep plan (runPlan).
 */

#ifndef TPNET_CORE_EXPERIMENT_HPP
#define TPNET_CORE_EXPERIMENT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "sim/config.hpp"

namespace tpnet {

/** One point of a latency-throughput (or fault-sweep) series. */
struct SeriesPoint
{
    double x = 0.0;  ///< offered load or fault count
    SimConfig cfg;   ///< the configuration run at x
    ReplicatedResult result;
};

/** A labelled curve, e.g. "TP (10F)". */
struct Series
{
    std::string label;
    std::vector<SeriesPoint> points;
};

/** Replication and parallelism policy for a sweep. */
struct SweepOptions
{
    std::size_t minReps = 1;
    std::size_t maxReps = 3;
    double relBound = 0.05;

    /**
     * Worker threads: > 0 uses exactly that many, <= 0 resolves via
     * TPNET_JOBS / hardware concurrency (resolveJobs). Every value
     * produces bit-identical series (see runPlan).
     */
    int jobs = 0;
};

/** @p base at each offered load (in data flits/node/cycle). */
Series loadSeries(const SimConfig &base, const std::string &label,
                  const std::vector<double> &loads);

/** @p base with each static node-fault count (Fig. 14's x-axis). */
Series faultSeries(const SimConfig &base, const std::string &label,
                   const std::vector<int> &fault_counts);

/** Where a plan's wall time went, from a steady_clock lap per task. */
struct PlanTiming
{
    std::size_t tasks = 0;  ///< simulations run
    double sum = 0.0;       ///< seconds, summed over every task
    double longest = 0.0;   ///< seconds of the slowest task
    std::string label;      ///< the slowest task's series
    double x = 0.0;         ///< and its point
};

/**
 * Run every (series, point, replication) of @p plan through one pool
 * and fold each point's replications, in order, into its result. Round
 * 0 runs replications [0, minReps) of every point, each later round the
 * next one of every point whose fold has not stopped; workers claim a
 * round's tasks longest-first (offered load descending, then plan order).
 */
std::vector<Series> runPlan(std::vector<Series> plan,
                            const SweepOptions &opt,
                            PlanTiming *timing = nullptr);

/** A one-series plan: @p base at each offered load. */
Series loadSweep(const SimConfig &base, const std::string &label,
                 const std::vector<double> &loads,
                 const SweepOptions &opt = {});

/** A one-series plan: @p base with each static node-fault count. */
Series faultSweep(const SimConfig &base, const std::string &label,
                  const std::vector<int> &fault_counts,
                  const SweepOptions &opt = {});

/** A one-point plan: @p cfg replicated under the paper's 95%-CI rule. */
ReplicatedResult runReplicated(const SimConfig &cfg,
                               const SweepOptions &opt);

/** Print a series as a TSV block (label, header, one row per point). */
void printSeries(std::ostream &os, const Series &series,
                 const char *x_name);

/**
 * Write several series as one tidy CSV (columns: series, x, throughput,
 * latency, p95, delivered_frac, undeliverable, replications, lat_ci95)
 * ready for any plotting tool. @return false if the file could not be
 * opened.
 */
bool writeSeriesCsv(const std::string &path,
                    const std::vector<Series> &series,
                    const char *x_name);

/** Default offered-load grid used by the figure benches. */
std::vector<double> defaultLoadGrid();

} // namespace tpnet

#endif // TPNET_CORE_EXPERIMENT_HPP
