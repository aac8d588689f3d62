/**
 * @file
 * Shared setup for the figure-reproduction benches.
 *
 * Every bench uses the paper's evaluation setup (Section 6.0): a 16-ary
 * 2-cube, 32-flit messages, 1-flit header, uniform traffic, 8-message
 * injection-queue limit. Reproduction targets the *shape* of each curve
 * (who wins, by what factor, where the knees are), not absolute cycle
 * counts.
 *
 * Environment knobs:
 *   TPNET_BENCH_REPS  replications per point (default 1; the paper's
 *                     95%-CI rule engages when > 1)
 *   TPNET_BENCH_FAST  nonzero -> quarter-length windows (smoke mode)
 *   TPNET_JOBS        default sweep worker count (see --jobs)
 *
 * Command-line knobs (every figure bench, via Harness):
 *   --jobs N          sweep worker threads; results are bit-identical
 *                     for every N
 *   --json out.json   also emit structured results (report.hpp schema)
 */

#ifndef TPNET_BENCH_COMMON_HPP
#define TPNET_BENCH_COMMON_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/pool.hpp"
#include "core/tpnet.hpp"
#include "sim/options.hpp"

#include "report.hpp"

namespace tpnet::bench {

inline int
envInt(const char *name, int fallback)
{
    const char *v = std::getenv(name);
    return v ? std::atoi(v) : fallback;
}

inline bool
fastMode()
{
    return envInt("TPNET_BENCH_FAST", 0) != 0;
}

/** The paper's simulated system (Section 6.0). */
inline SimConfig
paperConfig(Protocol p)
{
    SimConfig cfg;
    cfg.k = 16;
    cfg.n = 2;
    cfg.protocol = p;
    cfg.msgLength = 32;
    cfg.warmup = fastMode() ? 500 : 2000;
    cfg.measure = fastMode() ? 1500 : 6000;
    cfg.drain = 30000;
    cfg.seed = 20260705;
    return cfg;
}

inline SweepOptions
sweepOptions()
{
    SweepOptions opt;
    opt.minReps = 1;
    opt.maxReps = static_cast<std::size_t>(envInt("TPNET_BENCH_REPS", 1));
    if (opt.maxReps < 1)
        opt.maxReps = 1;
    opt.minReps = opt.maxReps > 1 ? 2 : 1;
    return opt;
}

/** Offered loads in data flits/node/cycle (the figures' x-range). */
inline std::vector<double>
loadGrid()
{
    if (fastMode())
        return {0.05, 0.15, 0.25, 0.32};
    return defaultLoadGrid();
}

inline void
banner(const char *title, const char *paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("system: 16-ary 2-cube, 32-flit messages, uniform traffic\n");
    std::printf("==============================================================\n\n");
}

/**
 * Per-bench driver: parses the shared --jobs/--json flags, prints the
 * banner, times the whole run, and (via add/finish) both prints each
 * series and records it for the optional JSON emission.
 */
class Harness
{
  public:
    Harness(int argc, char **argv, const char *title,
            const char *paper_ref)
    {
        const char *base = argc > 0 ? argv[0] : "bench";
        if (const char *slash = std::strrchr(base, '/'))
            base = slash + 1;
        name_ = base;

        OptionParser parser(name_, "figure-reproduction bench");
        parser.addJobs(&jobs_);
        parser.addString("json",
                         "also write structured results to this file "
                         "(see bench/report.hpp for the schema)",
                         &json_);
        parser.parseOrExit(argc, argv);
        banner(title, paper_ref);
        start_ = std::chrono::steady_clock::now();
    }

    /** Env-derived replication policy plus the --jobs knob. */
    SweepOptions
    sweepOptions() const
    {
        SweepOptions opt = bench::sweepOptions();
        opt.jobs = jobs_;
        return opt;
    }

    /** Print @p s and record it for the JSON report. */
    void
    add(const Series &s, const char *x_name)
    {
        printSeries(std::cout, s, x_name);
        series_.push_back({s, x_name});
    }

    /** Emit the wall-clock trailer (and JSON if requested). */
    int
    finish()
    {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::size_t npoints = 0;
        for (const LabelledSeries &ls : series_)
            npoints += ls.series.points.size();
        std::printf("# wall %.3f s, %zu points, %zu jobs\n", wall,
                    npoints, resolveJobs(jobs_));
        if (!json_.empty()) {
            if (!writeBenchJson(json_, name_, series_, wall,
                                resolveJobs(jobs_),
                                sweepOptions().maxReps, fastMode())) {
                std::fprintf(stderr, "error: could not write %s\n",
                             json_.c_str());
                return 1;
            }
            std::printf("# wrote %s\n", json_.c_str());
        }
        return 0;
    }

  private:
    std::string name_;
    std::string json_;
    int jobs_ = 0;
    std::vector<LabelledSeries> series_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tpnet::bench

#endif // TPNET_BENCH_COMMON_HPP
