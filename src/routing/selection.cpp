#include "routing/selection.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "core/network.hpp"
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
firstFree(Network &net, Message &msg, const PortList &ports, Scan scan)
{
    const NodeId cur = msg.hdr.cur;
    const std::uint32_t tried = scan.skipTried ? net.triedHere(msg) : 0;
    for (int port : ports) {
        if (tried & (1u << port))
            continue;
        if (net.channelFaulty(cur, port))
            continue;
        if (scan.skipUnsafe && net.channelUnsafe(cur, port))
            continue;
        const int vc = net.firstFreeVc(cur, port, scan.vcFloor,
                                       net.vcCount());
        if (vc >= 0)
            return Candidate{port, vc};
        noteCandidateRange(net, cur, port, scan.vcFloor, net.vcCount());
    }
    return std::nullopt;
}

Decision
escapeStep(Network &net, const Message &msg, int ep)
{
    const int cls = net.escapeClass(msg, ep);
    if (net.escapeVcFree(msg, ep))
        return Decision::forward(ep, cls);
    net.cwgNoteCandidate(msg.hdr.cur, ep, cls);
    return Decision::block();
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

Decision
exhausted(Network &net, Message &msg)
{
    if (net.canBacktrack(msg))
        return Decision::backtrack();
    if (!msg.path.empty())
        return Decision::block();
    const std::uint32_t tried = net.triedHere(msg);
    for (int port = 0; port < net.topo().radix(); ++port) {
        if (!(tried & (1u << port)) && !net.channelFaulty(msg.hdr.cur, port))
            return Decision::block();
    }
    return Decision::abort();
}

} // namespace select

namespace {

/** The protocol table, one row per Protocol in declaration order. */
constexpr ProtocolRow protocolRows[] = {
    /* DimOrder */ {FlowMode::Wormhole, true, route::dimOrder},
    /* Duato    */ {FlowMode::Wormhole, true, route::duato},
    /* Scouting */ {FlowMode::Scout, false, route::scouting},
    /* Pcs      */ {FlowMode::PcsSetup, false, route::duato},
    /* MBm      */ {FlowMode::PcsSetup, false, route::mbm},
    /* TwoPhase */ {FlowMode::Wormhole, false, route::twoPhase},
};
static_assert(std::size(protocolRows) ==
              static_cast<std::size_t>(Protocol::TwoPhase) + 1);

const ProtocolRow &
rowOf(Protocol p)
{
    const auto i = static_cast<std::size_t>(p);
    if (i >= std::size(protocolRows))
        tpnet_panic("unknown protocol ", static_cast<int>(p));
    return protocolRows[i];
}

} // namespace

RoutingProtocol::RoutingProtocol(const SimConfig &cfg)
    : row_(rowOf(cfg.protocol)), scoutK_(cfg.scoutK)
{}

} // namespace tpnet
