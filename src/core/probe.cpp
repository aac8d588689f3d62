/**
 * @file
 * Routing-probe mechanics: applying RCU decisions, probe movement
 * bookkeeping (offsets, dateline bits, Theorem 2 misroute balances,
 * search budget), backtracking, path completion, and the Two-Phase
 * mode-transition hooks (SR mode, detour construction) of Section 4.0.
 */

#include <algorithm>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

namespace {

/// Consecutive blocked RCU service slots after which a backtracking
/// protocol abandons the attempt (recovery of last resort).
constexpr int stallLimit = 128;

} // namespace

bool
Network::serveHeader(Message &msg)
{
    HeaderState &hdr = msg.hdr;

    if (hdr.atDest()) {
        msg.inRcu = false;
        if (cwg_)
            cwg_->onGranted(msg);
        applyEject(msg);
        return true;
    }

    if (cwg_)
        cwg_->beginEvaluation(msg);
    const Decision d = proto_.route(*this, msg);
    switch (d.kind) {
      case Decision::Kind::Forward:
        msg.inRcu = false;
        if (cwg_)
            cwg_->onGranted(msg);
        applyForward(msg, d);
        return true;

      case Decision::Kind::Eject:
        msg.inRcu = false;
        if (cwg_)
            cwg_->onGranted(msg);
        applyEject(msg);
        return true;

      case Decision::Kind::Backtrack:
        msg.inRcu = false;
        if (cwg_)
            cwg_->onRetreat(msg);
        applyBacktrack(msg);
        return true;

      case Decision::Kind::Block:
        ++hdr.stalled;
        if (hdr.stalled > stallLimit && proto_.abortsOnStall(msg)) {
            msg.inRcu = false;
            abortSetup(msg);
        } else if (cwg_) {
            // Commit the busy trios route() observed as wait edges of
            // the channel-wait-for graph.
            cwg_->onBlocked(msg);
        }
        return false;

      case Decision::Kind::Abort:
        msg.inRcu = false;
        abortSetup(msg);
        return false;
    }
    tpnet_panic("unhandled decision kind");
}

void
Network::applyForward(Message &msg, const Decision &d)
{
    HeaderState &hdr = msg.hdr;
    const NodeId cur = hdr.cur;
    Link &out = linkAt(cur, d.port);
    if (out.faulty || nodeFaulty(out.dst))
        tpnet_panic("protocol forwarded onto a faulty channel");
    VcState &vc = plane_.vc(out.id, d.vc);
    if (!vc.free())
        tpnet_panic("protocol forwarded onto a busy VC");

    // History store: record the searched output port at this node.
    triedHere(msg) |= 1u << d.port;

    // Theorem 2 misroute bookkeeping, evaluated before the move.
    PathHop hop;
    hop.link = out.id;
    hop.vc = d.vc;
    hop.misroute = !topo_->portProfitable(cur, d.port, msg.dst);
    if (hop.misroute) {
        ++hdr.misroutes;
        ++hdr.misBalance[static_cast<std::size_t>(d.port)];
        ++msg.misroutesTaken;
        ++counters_.misroutes;
    } else {
        const int paired = topo_->pairedPort(d.port);
        if (paired >= 0 &&
            hdr.misBalance[static_cast<std::size_t>(paired)] > 0) {
            // A profitable hop through the paired (opposite) channel
            // corrects one outstanding misroute of this dimension.
            --hdr.misBalance[static_cast<std::size_t>(paired)];
            --hdr.misroutes;
            hop.corrected = static_cast<std::int8_t>(paired);
        }
    }

    vc.reserve(msg.id, proto_.kRegFor(msg), hdr.detour);

    if (msg.path.empty()) {
        msg.srcRouted = true;
        // An Active-but-unrouted injection front keeps its node out of
        // the data ready set; becoming source-routed makes it
        // injectable, so the node must re-register.
        dataWake(msg.src);
    } else {
        const PathHop &prev = msg.path.back();
        mapVc(cur, plane_.index(prev.link, prev.vc), d.port, d.vc);
        // The mapping may expose already-buffered flits to this
        // router's data phase.
        dataWake(cur);
    }
    msg.path.push_back(hop);
    hdr.stalled = 0;
    if (trace_) {
        trace_->vcAllocated(now_, out, d.vc, msg,
                            static_cast<int>(msg.path.size()) - 1);
        trace_->probeEvent(now_, msg, ProbeEvent::Routed);
    }

    if (!proto_.inlineHeader()) {
        // Probe travels on the corresponding channel via the control lane.
        Flit flit;
        flit.type = FlitType::Header;
        flit.msg = msg.id;
        flit.hopIdx = static_cast<std::int32_t>(msg.path.size()) - 1;
        flit.epoch = msg.epoch;
        flit.readyAt = now_;
        pushCtrl(cur, d.port, flit);
    }
    // Inline WR probes physically move through the data lanes; the
    // corresponding probeArrived() fires when the flit crosses.
}

void
Network::probeArrived(Message &msg, int hop_idx)
{
    HeaderState &hdr = msg.hdr;
    if (hop_idx != static_cast<int>(msg.path.size()) - 1)
        tpnet_panic("probe arrival at non-frontier hop ", hop_idx);
    const PathHop &hop = msg.path[static_cast<std::size_t>(hop_idx)];
    const Link &in = link(hop.link);

    hdr.cur = in.dst;
    hdr.offset = topo_->offsets(in.dst, msg.dst);
    hdr.datelineCrossed =
        topo_->datelineAfter(in.src, in.srcPort, hdr.datelineCrossed);
    ++hdr.hops;
    hdr.stalled = 0;
    ++counters_.headerMoves;

    // "Every time a channel is successfully reserved by the routing
    // header, it returns a positive acknowledgment" (Section 2.2).
    if (proto_.emitsPosAck(msg)) {
        ++counters_.posAcks;
        Flit ack;
        ack.type = FlitType::AckPos;
        ack.msg = msg.id;
        ack.hopIdx = hop_idx - 1;
        ack.epoch = msg.epoch;
        ack.readyAt = now_ + 1;
        relayUpstream(msg, ack);
    }

    // "The detour is complete when all misrouting steps performed
    // during detour construction have been corrected" (reaching the
    // destination is handled at ejection).
    if (hdr.detour && hdr.misroutes == 0)
        completeDetour(msg);
    if (msg.terminal() || msg.state == MsgState::WaitRetry)
        return;

    if (hdr.hops > searchBudgetDiameters * topo_->diameter()) {
        abortSetup(msg);
        return;
    }

    if (!msg.inRcu) {
        enqueueRcu(hdr.cur, {msg.id, msg.epoch});
        msg.inRcu = true;
    }
}

void
Network::applyBacktrack(Message &msg)
{
    HeaderState &hdr = msg.hdr;
    if (!canBacktrack(msg))
        tpnet_panic("illegal backtrack");
    if (proto_.inlineHeader())
        tpnet_panic("inline wormhole probes cannot backtrack");

    const int idx = static_cast<int>(msg.path.size()) - 1;
    const PathHop hop = msg.path[static_cast<std::size_t>(idx)];
    Link &lk = link(hop.link);

    releaseHop(msg, idx, false);
    msg.path.pop_back();

    if (msg.path.empty()) {
        msg.srcRouted = false;
    } else {
        const PathHop &prev = msg.path.back();
        unmapVc(lk.src, plane_.index(prev.link, prev.vc));
    }

    // Undo the Theorem 2 bookkeeping for the removed hop. "Backtracking
    // over a misroute removes it from the path and decrements the
    // misroute count" (Section 3.0).
    if (hop.misroute) {
        --hdr.misroutes;
        --hdr.misBalance[static_cast<std::size_t>(lk.srcPort)];
    } else if (hop.corrected >= 0) {
        ++hdr.misBalance[static_cast<std::size_t>(hop.corrected)];
        ++hdr.misroutes;
    }

    hdr.backtrack = true;
    ++msg.backtracksTaken;
    ++counters_.backtracks;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::Backtracked);

    // The probe retreats over the complementary channel of the released
    // trio: the reverse wire's control lane.
    Flit flit;
    flit.type = FlitType::Header;
    flit.msg = msg.id;
    flit.hopIdx = idx - 1;
    flit.epoch = msg.epoch;
    flit.readyAt = now_;
    pushCtrl(lk.dst, lk.dstPort, flit);
}

void
Network::applyEject(Message &msg)
{
    HeaderState &hdr = msg.hdr;
    if (msg.path.empty())
        tpnet_panic("eject with empty path (src == dst traffic?)");
    PathHop &last = msg.path.back();
    Link &in = link(last.link);
    if (in.dst != msg.dst)
        tpnet_panic("eject away from destination");
    const VcIndex lastVc = plane_.index(last.link, last.vc);
    VcState &vc = plane_[lastVc];

    mapVc(msg.dst, lastVc, ejectPort, -1);
    dataWake(msg.dst);
    msg.headerAtDest = true;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::Ejected);

    if (hdr.detour)
        completeDetour(msg);

    // Destination-reached acknowledgment: releases the PCS source hold,
    // opens residual SR gates (paths shorter than K), and sweeps any
    // remaining detour holds.
    const bool need_done = msg.srcHold || msg.srcK > 0 || vc.kReg > 0 ||
        msg.detoursBuilt > 0;
    if (need_done) {
        vc.counter = std::max(vc.counter, vc.kReg);
        vc.hold = false;
        Flit done;
        done.type = FlitType::PathDone;
        done.msg = msg.id;
        done.hopIdx = static_cast<std::int32_t>(msg.path.size()) - 2;
        done.epoch = msg.epoch;
        done.readyAt = now_ + 1;
        relayUpstream(msg, done);
    }
}

bool
Network::canBacktrack(const Message &msg) const
{
    if (msg.path.empty())
        return false;
    const int last = static_cast<int>(msg.path.size()) - 1;
    if (msg.leadHop >= last)
        return false;  // a data flit resides at or beyond the probe's hop
    const PathHop &hop = msg.path[static_cast<std::size_t>(last)];
    return plane_.vc(hop.link, hop.vc).empty();
}

int
Network::arrivalPort(const Message &msg) const
{
    if (msg.path.empty())
        return -1;
    return link(msg.path.back().link).dstPort;
}

std::uint32_t &
Network::triedHere(Message &msg)
{
    return msg.visited[msg.hdr.cur];
}

// --- Channel-status queries ------------------------------------------------

bool
Network::channelFaulty(NodeId node, int port) const
{
    const Link &lk = linkAt(node, port);
    return lk.faulty ||
        routers_[static_cast<std::size_t>(lk.dst)].faulty;
}

bool
Network::channelUnsafe(NodeId node, int port) const
{
    return linkAt(node, port).unsafe;
}

int
Network::escapeClass(const Message &msg, int port) const
{
    return topo_->escapeClass(msg.hdr.cur, port, msg.dst,
                              msg.hdr.datelineCrossed, cfg_.escapeVcs);
}

bool
Network::escapeVcFree(const Message &msg, int port) const
{
    return plane_
        .vc(topo_->linkId(msg.hdr.cur, port), escapeClass(msg, port))
        .free();
}

int
Network::ecubePort(const Message &msg) const
{
    return topo_->escapePort(msg.hdr.cur, msg.dst);
}

// --- Two-Phase mode transitions (Section 4.0) --------------------------

void
Network::enterSrMode(Message &msg)
{
    if (msg.hdr.sr)
        return;
    msg.hdr.sr = true;
    msg.hdr.flow = FlowMode::Scout;
    if (msg.path.empty())
        msg.srcK = cfg_.scoutK;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::EnteredSrMode);
}

void
Network::enterDetour(Message &msg)
{
    HeaderState &hdr = msg.hdr;
    if (hdr.detour)
        return;
    hdr.detour = true;
    ++msg.detoursBuilt;
    ++counters_.detoursBuilt;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::EnteredDetour);

    // Freeze the data where it stands: place the detour hold on the gate
    // in front of the leading data flit.
    if (msg.leadHop < 0) {
        hdr.holdIdx = -1;
        msg.srcHold = true;
    } else if (msg.leadHop == leadEjected) {
        hdr.holdIdx = -2;  // all data already delivered; nothing to hold
    } else {
        hdr.holdIdx = std::min(msg.leadHop,
                               static_cast<int>(msg.path.size()) - 1);
        PathHop &hop = msg.path[static_cast<std::size_t>(hdr.holdIdx)];
        plane_.vc(hop.link, hop.vc).hold = true;
    }
}

void
Network::completeDetour(Message &msg)
{
    HeaderState &hdr = msg.hdr;
    if (!hdr.detour)
        return;
    hdr.detour = false;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::CompletedDetour);

    const int last = static_cast<int>(msg.path.size()) - 1;
    if (last < 0) {
        // The whole detour was unwound back to the source.
        msg.srcHold = msg.hdr.flow == FlowMode::PcsSetup;
        hdr.holdIdx = -2;
        return;
    }

    // "All channels (or none) in a detour are accepted before the data
    // flits resume progress": a release sweeps upstream from the probe,
    // accepting every held trio down to the frozen gate.
    PathHop &hop = msg.path[static_cast<std::size_t>(last)];
    VcState &vc = plane_.vc(hop.link, hop.vc);
    vc.hold = false;
    vc.counter = std::max(vc.counter, vc.kReg);
    if (last == hdr.holdIdx) {
        hdr.holdIdx = -2;
        return;
    }
    Flit rel;
    rel.type = FlitType::Release;
    rel.msg = msg.id;
    rel.hopIdx = last - 1;
    rel.epoch = msg.epoch;
    rel.readyAt = now_ + 1;
    relayUpstream(msg, rel);
}

} // namespace tpnet
