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

void
ClassStat::merge(const ClassStat &other)
{
    generated += other.generated;
    delivered += other.delivered;
    dropped += other.dropped;
    measuredGenerated += other.measuredGenerated;
    measuredDelivered += other.measuredDelivered;
    windowDataFlits += other.windowDataFlits;
    latency.merge(other.latency);
}

void
Counters::merge(const Counters &o)
{
    generated += o.generated;
    notAccepted += o.notAccepted;
    delivered += o.delivered;
    dropped += o.dropped;
    lost += o.lost;
    retransmits += o.retransmits;
    retriesScheduled += o.retriesScheduled;
    headerMoves += o.headerMoves;
    backtracks += o.backtracks;
    misroutes += o.misroutes;
    detoursBuilt += o.detoursBuilt;
    setupAborts += o.setupAborts;
    dataCrossings += o.dataCrossings;
    ctrlCrossings += o.ctrlCrossings;
    posAcks += o.posAcks;
    negAcks += o.negAcks;
    killFlits += o.killFlits;
    msgAcks += o.msgAcks;
    dataFlitsDelivered += o.dataFlitsDelivered;
    dynamicFaults += o.dynamicFaults;
    intermittentFaults += o.intermittentFaults;
    linksRestored += o.linksRestored;
    messagesKilled += o.messagesKilled;
    headersSalvaged += o.headersSalvaged;
    knotsDetected += o.knotsDetected;
    victimsAborted += o.victimsAborted;
    healRetransmits += o.healRetransmits;
    healEscalations += o.healEscalations;
    uniformFallbacks += o.uniformFallbacks;
    repliesGenerated += o.repliesGenerated;
    repliesDelivered += o.repliesDelivered;
    repliesAbandoned += o.repliesAbandoned;
    closedLoopPending += o.closedLoopPending;
    e2ePending += o.e2ePending;
    measuredGenerated += o.measuredGenerated;
    measuredDelivered += o.measuredDelivered;
    measuredDropped += o.measuredDropped;
    windowDataFlits += o.windowDataFlits;
    healLatency.merge(o.healLatency);
    healLatencyHist.merge(o.healLatencyHist);
    latency.merge(o.latency);
    latencyHist.merge(o.latencyHist);
    e2eLatency.merge(o.e2eLatency);
    if (classes.size() < o.classes.size())
        classes.resize(o.classes.size());
    for (std::size_t i = 0; i < o.classes.size(); ++i)
        classes[i].merge(o.classes[i]);
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
    if (perVc.size() < other.perVc.size())
        perVc.resize(other.perVc.size());
    for (std::size_t i = 0; i < other.perVc.size(); ++i)
        perVc[i].merge(other.perVc[i]);
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
