#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <sstream>

#include "core/network.hpp"

namespace tpnet::obs {

namespace {

/** Reserved trios and resident data flits of one link. */
struct LinkLoad
{
    int busy = 0;
    std::size_t resident = 0;
};

/** The one walk over the links (mesh wraparounds are absent) and VCs. */
template <class Fn>
void
forEachLink(const Network &net, Fn &&fn)
{
    for (LinkId id = 0; id < net.topo().links(); ++id) {
        const Link &lk = net.link(id);
        if (lk.absent)
            continue;
        LinkLoad load;
        for (int v = 0; v < net.vcCount(); ++v) {
            const VcState &vc = net.vc(id, v);
            if (!vc.free())
                ++load.busy;
            load.resident += vc.size();
        }
        fn(id, lk, load);
    }
}

} // namespace

MetricsRegistry::MetricsRegistry(const Network &net, int period)
    : period_(period)
{
    const int links = net.topo().links();
    lastData_.assign(static_cast<std::size_t>(links), 0);
    lastCtrl_.assign(static_cast<std::size_t>(links), 0);
    metrics_.perVc.resize(
        static_cast<std::size_t>(net.config().vcsPerLink()));
}

void
MetricsRegistry::tick(const Network &net)
{
    if (period_ <= 0)
        return;
    if (++sinceSample_ >= static_cast<Cycle>(period_)) {
        sinceSample_ = 0;
        sample(net);
    }
}

void
MetricsRegistry::skipIdle(const Network &net, Cycle skipped)
{
    if (period_ <= 0 || skipped == 0)
        return;
    const auto period = static_cast<Cycle>(period_);
    Cycle fires = (sinceSample_ + skipped) / period;
    sinceSample_ = (sinceSample_ + skipped) % period;
    // The first sample of the span still captures crossing deltas
    // pending from before it; the rest see zero deltas. The state
    // snapshots are identical every time, so each fire must be taken.
    for (; fires > 0; --fires)
        sample(net);
}

void
MetricsRegistry::sample(const Network &net)
{
    const SimConfig &cfg = net.config();
    const double capacity =
        static_cast<double>(cfg.vcsPerLink() * cfg.bufDepth);
    const double period = period_ > 0 ? static_cast<double>(period_) : 1.0;

    forEachLink(net, [&](LinkId id, const Link &lk, const LinkLoad &load) {
        for (std::size_t v = 0; v < static_cast<std::size_t>(net.vcCount()) &&
                                v < metrics_.perVc.size();
             ++v) {
            metrics_.perVc[v].add(
                static_cast<double>(net.vc(id, static_cast<int>(v)).size()) /
                static_cast<double>(cfg.bufDepth));
        }
        const double fill =
            capacity > 0 ? static_cast<double>(load.resident) / capacity
                         : 0.0;
        metrics_.occupancy.add(fill);
        metrics_.occupancyHist.add(fill);
        metrics_.muxDegree.add(static_cast<double>(load.busy));

        const auto i = static_cast<std::size_t>(id);
        metrics_.dataUtil.add(
            static_cast<double>(lk.dataCrossings - lastData_[i]) / period);
        metrics_.ctrlUtil.add(
            static_cast<double>(lk.ctrlCrossings - lastCtrl_[i]) / period);
        lastData_[i] = lk.dataCrossings;
        lastCtrl_[i] = lk.ctrlCrossings;
    });

    for (NodeId n = 0; n < cfg.nodes(); ++n) {
        const Router &rt = net.router(n);
        if (rt.faulty)
            continue;
        metrics_.rcuDepth.add(static_cast<double>(rt.rcuQueue.size()));
    }

    ++metrics_.samples;
}

NetworkStats
MetricsRegistry::snapshot(const Network &net)
{
    NetworkStats s;
    const Counters &c = net.counters();
    s.dataCrossings = c.dataCrossings;
    s.ctrlCrossings = c.ctrlCrossings;
    const double total =
        static_cast<double>(s.dataCrossings + s.ctrlCrossings);
    s.ctrlShare = total > 0
        ? static_cast<double>(s.ctrlCrossings) / total
        : 0.0;

    int healthyLinks = 0;
    std::uint64_t linkSum = 0;
    forEachLink(net, [&](LinkId, const Link &lk, const LinkLoad &load) {
        if (lk.faulty) {
            ++s.faultyLinks;
            return;
        }
        ++healthyLinks;
        linkSum += lk.dataCrossings;
        s.maxLinkCrossings = std::max(s.maxLinkCrossings, lk.dataCrossings);
        s.maxCtrlQueueDepth = std::max(s.maxCtrlQueueDepth, lk.maxCtrlDepth);
        if (lk.unsafe)
            ++s.unsafeLinks;
        s.totalVcs += net.vcCount();
        s.busyVcs += load.busy;
        s.bufferedFlits += static_cast<int>(load.resident);
    });
    if (healthyLinks > 0) {
        s.meanLinkCrossings = static_cast<double>(linkSum) /
            static_cast<double>(healthyLinks);
    }
    if (s.meanLinkCrossings > 0.0) {
        s.linkLoadImbalance =
            static_cast<double>(s.maxLinkCrossings) / s.meanLinkCrossings;
    }
    s.vcOccupancy = s.totalVcs > 0
        ? static_cast<double>(s.busyVcs) / static_cast<double>(s.totalVcs)
        : 0.0;

    for (NodeId id = 0; id < net.topo().nodes(); ++id) {
        const Router &rt = net.router(id);
        if (rt.faulty) {
            ++s.faultyNodes;
            continue;
        }
        s.maxRcuQueueDepth = std::max(s.maxRcuQueueDepth, rt.maxRcuDepth);
        s.headersRouted += rt.headersRouted;
    }
    return s;
}

std::string
NetworkStats::report() const
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "traffic: data crossings " << dataCrossings
       << ", control crossings " << ctrlCrossings << " (share "
       << ctrlShare * 100.0 << "%)\n";
    os << "links:   mean crossings/link " << meanLinkCrossings
       << ", max " << maxLinkCrossings << " (imbalance "
       << linkLoadImbalance << "x)\n";
    os << "vcs:     " << busyVcs << "/" << totalVcs << " busy ("
       << vcOccupancy * 100.0 << "%), " << bufferedFlits
       << " flits buffered\n";
    os << "control: max COBU depth " << maxCtrlQueueDepth
       << ", max RCU queue " << maxRcuQueueDepth << ", headers routed "
       << headersRouted << "\n";
    os << "faults:  " << faultyNodes << " nodes, " << faultyLinks
       << " wires, " << unsafeLinks << " unsafe wires\n";
    return os.str();
}

} // namespace tpnet::obs
