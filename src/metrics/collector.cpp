#include "metrics/collector.hpp"

#include <sstream>

namespace tpnet {

std::string
RunResult::header()
{
    return "offered\tthroughput\tlatency\tp95\tdelivered%\tundeliverable";
}

std::string
RunResult::row() const
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(4);
    os << offeredLoad << '\t' << throughput << '\t';
    os.precision(1);
    os << avgLatency << '\t' << p95Latency << '\t';
    os.precision(1);
    os << deliveredFraction * 100.0 << '\t' << undeliverable;
    return os.str();
}

namespace {

void
mergeField(std::uint64_t &a, std::uint64_t b)
{
    a += b;
}

template <class T>
void
mergeField(T &a, const T &b)
{
    a.merge(b);
}

template <class T>
void
mergeField(std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() < b.size())
        a.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        a[i].merge(b[i]);
}

const auto mergeFields = [](auto &a, const auto &b) { mergeField(a, b); };

} // namespace

void
ClassStat::merge(const ClassStat &other)
{
    forEachField(mergeFields, *this, other);
}

void
Counters::merge(const Counters &other)
{
    forEachField(mergeFields, *this, other);
}

void
VcMetrics::merge(const VcMetrics &other)
{
    occupancy.merge(other.occupancy);
    muxDegree.merge(other.muxDegree);
    dataUtil.merge(other.dataUtil);
    ctrlUtil.merge(other.ctrlUtil);
    rcuDepth.merge(other.rcuDepth);
    occupancyHist.merge(other.occupancyHist);
    mergeField(perVc, other.perVc);
    samples += other.samples;
}

RunResult
deriveResult(const Counters &c, double offered_load, int nodes, Cycle window)
{
    RunResult r;
    r.offeredLoad = offered_load;
    r.counters = c;
    const double cells = static_cast<double>(nodes) *
        static_cast<double>(window);
    r.throughput = cells > 0
        ? static_cast<double>(c.windowDataFlits) / cells
        : 0.0;
    r.avgLatency = c.latency.mean();
    r.p95Latency = c.latencyHist.percentile(0.95);
    r.deliveredFraction = c.measuredGenerated > 0
        ? static_cast<double>(c.measuredDelivered) /
          static_cast<double>(c.measuredGenerated)
        : 1.0;
    r.undeliverable = c.dropped + c.lost;
    return r;
}

} // namespace tpnet
