#include "routing/selection.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/network.hpp"
#include "routing/registry.hpp"
#include "sim/log.hpp"

namespace tpnet {

namespace select {

PortList
profitableByOffset(const Network &net, const Message &msg)
{
    // The topology returns profitable ports already in its selection
    // preference order (cubes: most-remaining-offset dimension first,
    // reproducing the historical offset sort here bit for bit).
    return net.topo().profitablePorts(msg.hdr.cur, msg.dst);
}

namespace {

/**
 * CWG hook: an eligible port had no free VC in [lo, hi) — report each
 * as a legal candidate so a Block commits the full candidate set.
 */
void
noteCandidateRange(Network &net, NodeId cur, int port, int lo, int hi)
{
    for (int vc = lo; vc < hi; ++vc)
        net.cwgNoteCandidate(cur, port, vc);
}

} // namespace

std::optional<Candidate>
adaptiveProfitable(Network &net, const Message &msg, Safety safety)
{
    const NodeId cur = msg.hdr.cur;
    for (int port : profitableByOffset(net, msg)) {
        if (net.channelFaulty(cur, port))
            continue;
        if (safety == Safety::SafeOnly && net.channelUnsafe(cur, port))
            continue;
        const int vc = net.freeAdaptiveVc(cur, port);
        if (vc >= 0)
            return Candidate{port, vc};
        noteCandidateRange(net, cur, port, net.adaptiveVcFloor(),
                      net.vcCount());
    }
    return std::nullopt;
}

std::optional<Candidate>
recoveryEscape(Network &net, const Message &msg, int ep)
{
    const NodeId cur = msg.hdr.cur;
    const int vc = net.freeAdaptiveVc(cur, ep);
    if (vc >= 0)
        return Candidate{ep, vc};
    noteCandidateRange(net, cur, ep, net.adaptiveVcFloor(), net.vcCount());
    return std::nullopt;
}

std::optional<Candidate>
anyVcProfitableUntried(Network &net, Message &msg)
{
    const NodeId cur = msg.hdr.cur;
    const std::uint32_t tried = net.triedHere(msg);
    for (int port : profitableByOffset(net, msg)) {
        if (tried & (1u << port))
            continue;
        if (net.channelFaulty(cur, port))
            continue;
        const int vc = net.firstFreeVc(cur, port, 0, net.vcCount());
        if (vc >= 0)
            return Candidate{port, vc};
        noteCandidateRange(net, cur, port, 0, net.vcCount());
    }
    return std::nullopt;
}

std::optional<Candidate>
anyAdaptiveProfitableUntried(Network &net, Message &msg)
{
    const NodeId cur = msg.hdr.cur;
    const std::uint32_t tried = net.triedHere(msg);
    for (int port : profitableByOffset(net, msg)) {
        if (tried & (1u << port))
            continue;
        if (net.channelFaulty(cur, port))
            continue;
        const int vc = net.freeAdaptiveVc(cur, port);
        if (vc >= 0)
            return Candidate{port, vc};
        noteCandidateRange(net, cur, port, net.adaptiveVcFloor(),
                      net.vcCount());
    }
    return std::nullopt;
}

std::optional<Candidate>
misrouteUntried(Network &net, Message &msg, bool adaptive_only,
                bool allow_uturn)
{
    const NodeId cur = msg.hdr.cur;
    const std::uint32_t tried = net.triedHere(msg);
    const int in_port = net.arrivalPort(msg);
    const int radix = net.topo().radix();

    // Candidate order: the arrival channel's paired port first (Theorem 2
    // condition iii, continuing straight through; topologies without a
    // port pairing have no preferred continuation), then the rest; the
    // reverse of the arrival channel (a U-turn) last, and only when
    // U-turns are permitted.
    const int paired =
        in_port >= 0 ? net.topo().pairedPort(in_port) : -1;
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(radix));
    if (paired >= 0 && paired != in_port)
        order.push_back(paired);
    for (int port = 0; port < radix; ++port) {
        if (std::find(order.begin(), order.end(), port) == order.end() &&
            (in_port < 0 || port != in_port)) {
            order.push_back(port);
        }
    }
    if (in_port >= 0)
        order.push_back(in_port);  // U-turn candidate, lowest priority

    for (int port : order) {
        if (in_port >= 0 && port == in_port && !allow_uturn)
            continue;
        if (tried & (1u << port))
            continue;
        if (net.topo().portProfitable(cur, port, msg.dst))
            continue;  // handled by the profitable step
        if (net.channelFaulty(cur, port))
            continue;
        const int lo = adaptive_only ? net.adaptiveVcFloor() : 0;
        const int vc = net.firstFreeVc(cur, port, lo, net.vcCount());
        if (vc >= 0)
            return Candidate{port, vc};
        noteCandidateRange(net, cur, port, lo, net.vcCount());
    }
    return std::nullopt;
}

} // namespace select

std::unique_ptr<RoutingAlgorithm>
makeProtocol(const SimConfig &cfg)
{
    return makeRouting(cfg.protocol, cfg);
}

} // namespace tpnet
