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
 * A value that is not a whole number is a fatal error.
 *
 * Command-line knobs (every figure and ablation bench, via Harness):
 *   --jobs N          sweep worker threads; results are bit-identical
 *                     for every N
 *   --json out.json   also emit structured results (report.hpp schema)
 *
 * A bench's series run as one sweep plan (runPlan); the trailer line
 * `# tasks N, longest T s (label @ x), sum S s` shows its critical path.
 */

#ifndef TPNET_BENCH_COMMON_HPP
#define TPNET_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>

#include "core/pool.hpp"
#include "core/tpnet.hpp"
#include "sim/log.hpp"
#include "sim/options.hpp"

#include "report.hpp"

namespace tpnet::bench {

inline int
envInt(const char *name, int fallback)
{
    const char *v = std::getenv(name);
    int out = fallback;
    if (v && !parseNumber(v, &out))
        tpnet_fatal(name, " must be a whole number, got \"", v, "\"");
    return out;
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
 * banner, times the whole run, and queues the bench's series (add) into
 * one sweep plan. Series print, and go to the JSON report, in the order
 * they were added.
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

    /**
     * Queue @p series for the plan; @p x_name names its x column and
     * @p print, when given, replaces its TSV block.
     */
    void
    add(Series series, const char *x_name,
        std::function<void(const Series &)> print = {})
    {
        plan_.push_back(std::move(series));
        series_.push_back({{}, x_name});
        prints_.push_back(std::move(print));
    }

    /** Run the queued series as one plan and print them in order. */
    const std::vector<LabelledSeries> &
    run()
    {
        if (!plan_.empty()) {
            std::vector<Series> done =
                runPlan(std::move(plan_), sweepOptions(), &timing_);
            plan_.clear();
            for (std::size_t i = 0; i < done.size(); ++i) {
                if (prints_[i])
                    prints_[i](done[i]);
                else
                    printSeries(std::cout, done[i], series_[i].xName.c_str());
                series_[i].series = std::move(done[i]);
            }
        }
        return series_;
    }

    /** run(), then the wall-clock trailer (and JSON if requested). */
    int
    finish()
    {
        run();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::size_t npoints = 0;
        for (const LabelledSeries &ls : series_)
            npoints += ls.series.points.size();
        std::printf("# wall %.3f s, %zu points, %zu jobs\n", wall,
                    npoints, resolveJobs(jobs_));
        std::printf("# tasks %zu, longest %.3f s (%s @ %g), sum %.3f s\n",
                    timing_.tasks, timing_.longest, timing_.label.c_str(),
                    timing_.x, timing_.sum);
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
    /** TPNET_BENCH_REPS replications per point, and the --jobs knob. */
    SweepOptions
    sweepOptions() const
    {
        const int reps = std::max(1, envInt("TPNET_BENCH_REPS", 1));
        return {reps > 1 ? 2u : 1u, static_cast<std::size_t>(reps), 0.05,
                jobs_};
    }

    std::string name_;
    std::string json_;
    int jobs_ = 0;
    std::vector<Series> plan_;
    std::vector<std::function<void(const Series &)>> prints_;
    std::vector<LabelledSeries> series_;  ///< in the order added
    PlanTiming timing_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tpnet::bench

#endif // TPNET_BENCH_COMMON_HPP
