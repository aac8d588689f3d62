#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>

#include "core/pool.hpp"

namespace tpnet {

Series
loadSeries(const SimConfig &base, const std::string &label,
           const std::vector<double> &loads)
{
    Series s{label, {}};
    for (double load : loads) {
        s.points.push_back({load, base, {}});
        s.points.back().cfg.load = load;
    }
    return s;
}

Series
faultSeries(const SimConfig &base, const std::string &label,
            const std::vector<int> &fault_counts)
{
    Series s{label, {}};
    for (int faults : fault_counts) {
        s.points.push_back({static_cast<double>(faults), base, {}});
        s.points.back().cfg.staticNodeFaults = faults;
    }
    return s;
}

// Determinism: a task's result depends only on its configuration and
// replication index (Simulator::run seeds from those alone), and the
// folds run on this thread, each point's tasks in replication order.
std::vector<Series>
runPlan(std::vector<Series> plan, const SweepOptions &opt,
        PlanTiming *timing)
{
    struct Point
    {
        SeriesPoint *pt;
        const std::string *label;
        ReplicationFold fold;
        bool stopped = false;
    };
    struct Task
    {
        std::size_t point;
        std::size_t rep;
        RunResult result;
        double seconds = 0.0;
    };

    const std::size_t max_reps = std::max<std::size_t>(opt.maxReps, 1);
    const std::size_t first_round =
        std::clamp<std::size_t>(opt.minReps, 1, max_reps);
    std::vector<Point> points;
    for (Series &s : plan) {
        for (SeriesPoint &pt : s.points) {
            points.push_back({&pt, &s.label,
                              ReplicationFold(opt.minReps, max_reps,
                                              opt.relBound)});
        }
    }

    PlanTiming t;
    const std::size_t jobs = resolveJobs(opt.jobs);
    for (;;) {
        // Round 0: replications [0, minReps) of every point; then the
        // next replication of every point whose fold has not stopped.
        std::vector<Task> tasks;
        for (std::size_t p = 0; p < points.size(); ++p) {
            if (points[p].stopped)
                continue;
            const std::size_t done = points[p].fold.count();
            for (std::size_t r = done; r < std::max(done + 1, first_round);
                 ++r)
                tasks.push_back({p, r, {}});
        }
        if (tasks.empty())
            break;
        // Longest first: the stable sort keeps plan order (and so
        // replication order within a point) among equal loads.
        std::stable_sort(tasks.begin(), tasks.end(),
                         [&points](const Task &a, const Task &b) {
                             return points[a.point].pt->cfg.load >
                                    points[b.point].pt->cfg.load;
                         });
        parallelFor(tasks.size(), jobs, [&](std::size_t i) {
            Task &task = tasks[i];
            const auto start = std::chrono::steady_clock::now();
            task.result = Simulator(points[task.point].pt->cfg).run(task.rep);
            task.seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        });
        for (const Task &task : tasks) {
            Point &p = points[task.point];
            ++t.tasks;
            t.sum += task.seconds;
            if (task.seconds > t.longest) {
                t.longest = task.seconds;
                t.label = *p.label;
                t.x = p.pt->x;
            }
            p.stopped = p.fold.add(task.result);
        }
    }

    for (const Point &p : points)
        p.pt->result = p.fold.finish();
    if (timing)
        *timing = t;
    return plan;
}

Series
loadSweep(const SimConfig &base, const std::string &label,
          const std::vector<double> &loads, const SweepOptions &opt)
{
    return runPlan({loadSeries(base, label, loads)}, opt).front();
}

Series
faultSweep(const SimConfig &base, const std::string &label,
           const std::vector<int> &fault_counts, const SweepOptions &opt)
{
    return runPlan({faultSeries(base, label, fault_counts)}, opt).front();
}

ReplicatedResult
runReplicated(const SimConfig &cfg, const SweepOptions &opt)
{
    return runPlan({{"", {{cfg.load, cfg, {}}}}}, opt)
        .front()
        .points.front()
        .result;
}

void
printSeries(std::ostream &os, const Series &series, const char *x_name)
{
    os << "# " << series.label << '\n';
    os << x_name << '\t' << RunResult::header() << "\treps\tlat_ci95\n";
    for (const SeriesPoint &pt : series.points) {
        os << pt.x << '\t' << pt.result.mean.row() << '\t'
           << pt.result.replications << '\t' << pt.result.latencyHw95;
        if (pt.result.mean.degenerate)
            os << "\tDEGENERATE(0 offered)";
        os << '\n';
    }
    os << '\n';
}

bool
writeSeriesCsv(const std::string &path, const std::vector<Series> &series,
               const char *x_name)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "series," << x_name
       << ",throughput,latency,p95,delivered_frac,undeliverable,"
          "replications,lat_ci95\n";
    for (const Series &s : series) {
        for (const SeriesPoint &pt : s.points) {
            const RunResult &r = pt.result.mean;
            os << '"' << s.label << '"' << ',' << pt.x << ','
               << r.throughput << ',' << r.avgLatency << ','
               << r.p95Latency << ',' << r.deliveredFraction << ','
               << r.undeliverable << ',' << pt.result.replications
               << ',' << pt.result.latencyHw95 << '\n';
        }
    }
    return static_cast<bool>(os);
}

std::vector<double>
defaultLoadGrid()
{
    return {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40};
}

} // namespace tpnet
