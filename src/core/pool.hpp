/**
 * @file
 * Parallel fan-out for the experiment engine.
 *
 * Every figure of the paper's evaluation is a grid of independent
 * simulation points (Section 6.0), so the sweep plan (runPlan) fans
 * each (series, point, replication) out to its own shared-nothing
 * Simulator through parallelFor. Determinism is preserved by construction: a task's RNG
 * seed is a pure function of the configuration seed and its
 * replication index (see Simulator::run), never of thread identity or
 * completion order, and each task writes only its own result slot — so
 * `--jobs N` produces bit-identical results to `--jobs 1`.
 */

#ifndef TPNET_CORE_POOL_HPP
#define TPNET_CORE_POOL_HPP

#include <cstddef>
#include <functional>

namespace tpnet {

/**
 * Resolve a `--jobs` request to a worker count.
 *
 *  - @p requested > 0: use exactly that many workers;
 *  - @p requested <= 0: use the TPNET_JOBS environment variable if it
 *    is set to a positive integer, otherwise all hardware threads (a
 *    TPNET_JOBS that is not a whole number is a fatal error).
 *
 * Always returns at least 1.
 */
std::size_t resolveJobs(int requested);

/**
 * Run fn(0) .. fn(n-1) on @p jobs threads and return when all have
 * finished. Indices are claimed dynamically (an atomic cursor), so
 * long and short tasks balance; each fn(i) must touch only state owned
 * by index i. With @p jobs <= 1 (or n <= 1) the calls run inline on
 * the calling thread, in index order, with no threads spawned — the
 * sequential reference path. A thread whose task throws claims no
 * further indices; the first exception is rethrown once every thread
 * has finished.
 */
void parallelFor(std::size_t n, std::size_t jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace tpnet

#endif // TPNET_CORE_POOL_HPP
