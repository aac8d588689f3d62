/**
 * @file
 * Control-lane flow control (paper Sections 2.2, 2.3, 5.0).
 *
 * Each unidirectional physical link multiplexes all of its control
 * traffic — forward/backtracking routing headers on the corresponding
 * channels and acknowledgment/kill/release flits on the complementary
 * channels of the reverse direction's trios — over a single control lane
 * moving one flit per cycle (Fig. 2b). This file implements the lane
 * itself plus the upstream walkers: positive/negative SR acknowledgments
 * that drive the CMU counters, the destination-reached (PathDone)
 * acknowledgment, detour releases, kill walks, and end-to-end message
 * acknowledgments.
 */

#include <algorithm>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

void
Network::pushCtrl(NodeId node, int port, const Flit &flit)
{
    Link &wire = linkAt(node, port);
    if (wire.faulty)
        tpnet_panic("control flit pushed onto a faulty wire");
    auto &queue =
        cfg_.hardwareAcks && isAckClass(flit.type) ? wire.ackQ
                                                   : wire.ctrlQ;
    queue.push_back(flit);
    wire.maxCtrlDepth = std::max(wire.maxCtrlDepth, queue.size());
    ctrlWake(wire);
}

void
Network::ctrlVisit(Link &wire)
{
    ++work_.ctrlVisits;
    if (wire.faulty) {
        // Control flits on a failed wire are lost; the recovery
        // machinery releases the affected circuits separately.
        wire.ctrlQ.clear();
        wire.ackQ.clear();
        return;
    }
    if (!wire.ctrlQ.empty() && wire.ctrlQ.front().readyAt <= now_) {
        const Flit flit = wire.ctrlQ.front();
        wire.ctrlQ.pop_front();
        ++wire.ctrlCrossings;
        ++counters_.ctrlCrossings;
        if (trace_)
            trace_->flitCrossed(now_, wire, -1, flit, true);
        processCtrlArrival(wire, flit);
    }
    // Dedicated acknowledgment signals (hardware-ack design). Each
    // trio has its own ack wires, so acks of different circuits do
    // not contend: every ready flit crosses this cycle. Draining
    // only one per cycle would let a walker queue behind unrelated
    // acks and fall behind the retreating header on the control
    // lane — the header could then re-advance and re-acquire a trio
    // at a hop index the stale walker still addresses, corrupting
    // the fresh CMU counter. Flits pushed during the drain carry
    // readyAt = now + 1 and stop the loop at the front.
    while (!wire.ackQ.empty() && wire.ackQ.front().readyAt <= now_) {
        const Flit flit = wire.ackQ.front();
        wire.ackQ.pop_front();
        ++wire.ctrlCrossings;
        ++counters_.ctrlCrossings;
        if (trace_)
            trace_->flitCrossed(now_, wire, -1, flit, true);
        processCtrlArrival(wire, flit);
    }
}

void
Network::phaseControl()
{
    if (!cfg_.eventEngine) {
        for (Link &wire : links_)
            ctrlVisit(wire);
        return;
    }
    // Wires are visited in ascending id order, like the full scan (no
    // rotation on this phase). Visits may push flits onto other wires:
    // pushCtrl re-registers them, and ActivitySet merges wires with a
    // higher id into this very pass — exactly the ones the full scan
    // would still have reached. A wire left with only not-yet-ready
    // flits (readyAt > now) stays registered and is re-visited next
    // cycle; only a drained wire deregisters.
    ctrlActive_.beginPass(0);
    for (std::uint32_t id;
         (id = ctrlActive_.next()) != ActivitySet::kNone;) {
        Link &wire = links_[id];
        ctrlVisit(wire);
        if (wire.ctrlQ.empty() && wire.ackQ.empty())
            ctrlActive_.remove(id);
    }
}

void
Network::processCtrlArrival(Link &wire, Flit flit)
{
    Message *mp = findMessage(flit.msg);
    if (!mp || flit.epoch != mp->epoch)
        return;  // stale control traffic of a retired/re-tried message
    Message &msg = *mp;

    if (flit.type == FlitType::Header) {
        if (msg.tearingDown() || msg.terminal() ||
            msg.state == MsgState::WaitRetry) {
            return;  // the probe dies with its circuit
        }
        HeaderState &hdr = msg.hdr;
        if (!hdr.backtrack) {
            probeArrived(msg, flit.hopIdx);
            return;
        }

        // Backtracking probe retreated one hop over the complementary
        // channel (Section 2.2: it must send a negative acknowledgment).
        // CWG hook: edges were already retracted when the Backtrack
        // decision was applied; the arrival re-asserts an empty wait
        // set in case recovery re-routed the probe mid-flight. (A
        // scout-gap stall — the probe waiting on its own data to catch
        // up — is a self-wait and never creates an edge.)
        if (cwg_)
            cwg_->onRetreat(msg);
        hdr.backtrack = false;
        hdr.cur = wire.dst;
        hdr.offset = topo_->offsets(wire.dst, msg.dst);
        ++hdr.hops;
        stamp(msg, Progress::Churn);
        hdr.stalled = 0;
        ++counters_.headerMoves;

        if (proto_.emitsPosAck(msg)) {
            ++counters_.negAcks;
            const int j = static_cast<int>(msg.path.size()) - 1;
            Flit neg;
            neg.type = FlitType::AckNeg;
            neg.msg = msg.id;
            neg.hopIdx = j;
            neg.epoch = msg.epoch;
            neg.readyAt = now_ + 1;
            if (j < 0) {
                upstreamReachedSource(msg, neg);
            } else {
                // Apply locally (this router holds hop j's counter),
                // then continue upstream unless the data is here.
                if (!applyUpstream(msg, neg)) {
                    neg.hopIdx = j - 1;
                    relayUpstream(msg, neg);
                }
            }
        }

        if (hdr.hops > searchBudgetDiameters * topo_->diameter()) {
            abortSetup(msg);
            return;
        }
        if (!msg.inRcu) {
            enqueueRcu(hdr.cur, {msg.id, msg.epoch});
            msg.inRcu = true;
        }
        return;
    }

    if (flit.type == FlitType::KillDown) {
        handleKillDown(msg, flit);
        return;
    }

    // Upstream walkers: apply at flit.hopIdx (source when -1), then
    // either stop or continue one hop further upstream.
    if (flit.hopIdx < 0) {
        upstreamReachedSource(msg, flit);
        return;
    }
    if (flit.hopIdx >= static_cast<int>(msg.path.size())) {
        // Stale walker: the probe backtracked past this hop while the
        // flit was in flight (possible when acknowledgments travel on
        // dedicated signals and the retreating header overtakes them).
        // The trio was released with the hop; discard.
        return;
    }
    if (!applyUpstream(msg, flit)) {
        flit.hopIdx -= 1;
        flit.readyAt = now_ + 1;
        relayUpstream(msg, flit);
    }
}

bool
Network::applyUpstream(Message &msg, const Flit &flit)
{
    const int j = flit.hopIdx;
    PathHop &hop = msg.path[static_cast<std::size_t>(j)];
    VcState &vc = plane_.vc(hop.link, hop.vc);
    const bool owned = vc.owner == msg.id;

    // "The RCU does not propagate the acknowledgment beyond the first
    // data flit" (Section 5.0). The walker moves upstream one hop per
    // cycle while the lead data flit moves downstream, so they can
    // cross on a wire: by the time the walker applies here the front
    // may already have moved past. A hop the front has left has a dead
    // counter — the front proved it >= K when it crossed, later
    // walkers all stop at the new front and can never rebalance it —
    // so the walker must be dropped, not applied (in hardware the ack
    // and the data cross the same physical link and the RCU sees both
    // atomically; an AckNeg applied behind the front would gate the
    // follower flits below K forever).
    const bool behindFront = j < msg.leadHop;

    switch (flit.type) {
      case FlitType::AckPos:
        if (behindFront)
            return true;
        if (owned)
            ++vc.counter;
        return j == msg.leadHop;

      case FlitType::AckNeg:
        if (behindFront)
            return true;
        if (owned)
            --vc.counter;
        return j == msg.leadHop;

      case FlitType::PathDone:
        if (behindFront)
            return true;  // front only crosses unheld hops with ctr >= K
        if (owned) {
            vc.counter = std::max(vc.counter, vc.kReg);
            vc.hold = false;
        }
        return j == msg.leadHop;

      case FlitType::Release:
        if (owned) {
            vc.hold = false;
            vc.counter = std::max(vc.counter, vc.kReg);
        }
        if (j == msg.hdr.holdIdx) {
            msg.hdr.holdIdx = -2;
            return true;
        }
        return false;

      case FlitType::MsgAck:
        releaseHop(msg, j, false);
        return false;

      case FlitType::KillUp:
        releaseHop(msg, j, true);
        ++counters_.killFlits;
        return false;

      default:
        tpnet_panic("unexpected upstream flit type");
    }
}

void
Network::relayUpstream(Message &msg, Flit flit)
{
    const int next = flit.hopIdx;  // apply there after crossing
    const std::size_t crossIdx = static_cast<std::size_t>(next + 1);
    if (crossIdx >= msg.path.size())
        tpnet_panic("upstream relay beyond the path frontier");
    const LinkId fwd = msg.path[crossIdx].link;
    Link &wire = link(topo_->reverseLink(fwd));

    if (wire.faulty || nodeFaulty(wire.dst)) {
        // The walker cannot continue. Hop-releasing walkers complete
        // synchronously; for the others the fault machinery kills the
        // circuit.
        if (flit.type == FlitType::KillUp || flit.type == FlitType::MsgAck)
            cutWalkShort(msg, flit);
        return;
    }
    flit.readyAt = std::max(flit.readyAt, now_ + 1);
    auto &queue =
        cfg_.hardwareAcks && isAckClass(flit.type) ? wire.ackQ
                                                   : wire.ctrlQ;
    queue.push_back(flit);
    wire.maxCtrlDepth = std::max(wire.maxCtrlDepth, queue.size());
    ctrlWake(wire);
}

void
Network::upstreamReachedSource(Message &msg, const Flit &flit)
{
    // Same crossing race as applyUpstream, one wire from the PE: a
    // counter walker that was still upstream of the lead data flit
    // when it crossed the first wire can arrive after the front has
    // been injected. The injection gate was provably open (srcCounter
    // >= srcK, no hold) when the front left, and no later walker can
    // reach the source again, so a stale decrement would close the
    // gate for the follower flits permanently. Drop dead walkers.
    const bool frontLeft = msg.leadHop != -1;

    switch (flit.type) {
      case FlitType::AckPos:
        if (!frontLeft) {
            ++msg.srcCounter;
            stamp(msg, Progress::Churn);
        }
        break;

      case FlitType::AckNeg:
        if (!frontLeft) {
            --msg.srcCounter;
            stamp(msg, Progress::Churn);
        }
        break;

      case FlitType::PathDone:
        // PCS path setup complete: data may enter the network
        // (Section 2.2, t_PCS = 3l + L - 1).
        if (!frontLeft) {
            if (msg.srcCounter < msg.srcK) {
                msg.srcCounter = msg.srcK;
                stamp(msg, Progress::Churn);
            }
            msg.srcHold = false;
        }
        break;

      case FlitType::Release:
        msg.srcHold = false;
        msg.hdr.holdIdx = -2;
        break;

      case FlitType::MsgAck:
        // Reliable delivery confirmed end-to-end (Fig. 17).
        if (msg.state == MsgState::Delivered) {
            msg.state = MsgState::Complete;
            stamp(msg, Progress::Advance);
            retired_.push_back(msg.id);
        }
        break;

      case FlitType::KillUp:
        finishWalk(msg);
        break;

      default:
        tpnet_panic("unexpected flit at source gate");
    }
}

void
Network::handleKillDown(Message &msg, Flit flit)
{
    releaseHop(msg, flit.hopIdx, true);
    ++counters_.killFlits;
    if (flit.hopIdx >= static_cast<int>(msg.path.size()) - 1) {
        finishWalk(msg);
        return;
    }
    ++flit.hopIdx;
    sendKillDown(msg, flit);
}

} // namespace tpnet
