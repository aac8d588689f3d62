/**
 * @file
 * Distributed recovery (paper Sections 2.4, 4.0, 6.2; Fig. 16).
 *
 * Two teardown flavors share the kill-walk machinery:
 *  - voluntary setup aborts: a probe that exhausted its search budget or
 *    stalled past the limit tears its circuit down and re-tries from the
 *    source, up to maxRetries, after which the message is declared
 *    undeliverable (the higher-level-protocol action of Section 4.0);
 *  - dynamic-fault kills: the routers spanning a failure release kill
 *    flits along every interrupted circuit toward both the source and
 *    the destination. With tail acknowledgments enabled the source
 *    retransmits; without them the message is lost (a design trade-off
 *    the paper calls out explicitly).
 */

#include <algorithm>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

void
Network::abortSetup(Message &msg)
{
    if (msg.beingKilled || msg.terminal())
        return;
    ++counters_.setupAborts;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::Aborted);
    if (cwg_)
        cwg_->onMessageGone(msg.id);
    launchAbortWalk(msg);
}

void
Network::launchAbortWalk(Message &msg)
{
    if (msg.path.empty()) {
        // Probe never left the source (or fully unwound): no circuit to
        // tear down.
        finalizeAbortRetry(msg);
        return;
    }

    msg.beingKilled = true;
    msg.killIsAbort = true;
    msg.killWalks = 1;

    // Release the frontier hop locally; a kill walk sweeps the rest of
    // the circuit back to the source.
    const int last = static_cast<int>(msg.path.size()) - 1;
    releaseHop(msg, last, true);
    ++counters_.killFlits;
    Flit kill;
    kill.type = FlitType::KillUp;
    kill.msg = msg.id;
    kill.hopIdx = last - 1;
    kill.epoch = msg.epoch;
    kill.readyAt = now_ + 1;
    relayUpstream(msg, kill);
}

void
Network::finalizeAbortRetry(Message &msg)
{
    if (msg.healPending) {
        // A heal abort: close the heal episode, then retransmit on the
        // heal backoff schedule (heals do not consume ordinary retries).
        finishHeal(msg);
        scheduleHealRetry(msg);
        return;
    }
    scheduleRetry(msg);
}

void
Network::killMessage(Message &msg)
{
    if (msg.beingKilled || msg.terminal())
        return;
    msg.beingKilled = true;
    msg.killIsAbort = false;
    ++counters_.messagesKilled;
    // A killed circuit's probe stops competing for channels: its wait
    // edges must go with it or they would read as phantom deadlock
    // members for as long as the teardown walks take.
    if (cwg_)
        cwg_->onMessageGone(msg.id);

    // Hops on or adjacent to failed components are released by the
    // spanning routers the moment the failure is detected.
    const int last = static_cast<int>(msg.path.size()) - 1;
    int lo = last + 1;  // first affected hop
    int hi = -1;        // last affected hop
    for (int i = 0; i <= last; ++i) {
        const Link &lk = link(msg.path[static_cast<std::size_t>(i)].link);
        if (lk.faulty || nodeFaulty(lk.src) || nodeFaulty(lk.dst)) {
            lo = std::min(lo, i);
            hi = std::max(hi, i);
        }
    }
    if (hi < 0) {
        // No hop touches a failure (e.g. the whole source node died and
        // the path was empty, or the caller over-approximated): tear
        // down everything from the frontier.
        msg.killWalks = 0;
        if (last >= 0) {
            msg.killWalks = 1;
            releaseHop(msg, last, true);
            Flit kill;
            kill.type = FlitType::KillUp;
            kill.msg = msg.id;
            kill.hopIdx = last - 1;
            kill.epoch = msg.epoch;
            kill.readyAt = now_ + 1;
            relayUpstream(msg, kill);
        } else {
            finalizeKillWalk(msg);
        }
        return;
    }

    synchronousRelease(msg, lo, hi);
    msg.killWalks = 0;

    // Upstream kill walk from the router just above the break.
    if (lo > 0) {
        ++msg.killWalks;
        releaseHop(msg, lo - 1, true);
        ++counters_.killFlits;
        if (lo - 1 == 0) {
            // Apply at the source next.
            Flit kill;
            kill.type = FlitType::KillUp;
            kill.msg = msg.id;
            kill.hopIdx = -1;
            kill.epoch = msg.epoch;
            kill.readyAt = now_ + 1;
            relayUpstream(msg, kill);
        } else {
            Flit kill;
            kill.type = FlitType::KillUp;
            kill.msg = msg.id;
            kill.hopIdx = lo - 2;
            kill.epoch = msg.epoch;
            kill.readyAt = now_ + 1;
            relayUpstream(msg, kill);
        }
    }

    // Downstream kill walk from the router just below the break.
    if (hi < last) {
        ++msg.killWalks;
        Link &next = link(msg.path[static_cast<std::size_t>(hi + 1)].link);
        if (next.faulty || nodeFaulty(next.dst)) {
            synchronousRelease(msg, hi + 1, last);
            --msg.killWalks;
        } else {
            ++counters_.killFlits;
            Flit kill;
            kill.type = FlitType::KillDown;
            kill.msg = msg.id;
            kill.hopIdx = hi + 1;
            kill.epoch = msg.epoch;
            kill.readyAt = now_ + 1;
            next.ctrlQ.push_back(kill);
            ctrlWake(next);
        }
    }

    if (msg.killWalks == 0)
        finalizeKillWalk(msg);
}

void
Network::finalizeKillWalk(Message &msg)
{
    if (msg.killWalks > 0)
        --msg.killWalks;
    if (msg.killWalks > 0)
        return;
    msg.beingKilled = false;

    if (msg.killIsAbort) {
        msg.killIsAbort = false;
        finalizeAbortRetry(msg);
        return;
    }

    // Dynamic-fault kill completion.
    if (msg.state == MsgState::Complete)
        return;  // its MsgAck landed while the walk was out: retired
    if (msg.state == MsgState::Delivered) {
        // The tail already reached the destination; only the held path
        // (awaiting the message acknowledgment) was torn down.
        msg.state = MsgState::Complete;
        retired_.push_back(msg.id);
        return;
    }
    if (cfg_.tailAck) {
        if (!nodeFaulty(msg.src) && !nodeFaulty(msg.dst) &&
            msg.retries < cfg_.maxRetries) {
            // Reliable delivery: the source retransmits the message.
            ++counters_.retransmits;
            ++msg.retries;
            resetForRetry(msg);
            msg.state = MsgState::Queued;
            if (!msg.inQueue) {
                injQ_[static_cast<std::size_t>(msg.src)].push_back(
                    msg.id);
                msg.inQueue = true;
            }
            activateFront(msg.src);
            return;
        }
        // Endpoint dead or retries exhausted: undeliverable, not lost —
        // retransmission "does not guarantee message delivery because
        // the destination node may have become faulty or unreachable"
        // (Section 2.4).
        dropMessage(msg, false);
        return;
    }
    // No retransmission support: the interrupted message is lost.
    dropMessage(msg, true);
}

void
Network::scheduleRetry(Message &msg)
{
    if (msg.terminal())
        return;
    ++msg.retries;
    if (msg.retries > cfg_.maxRetries || nodeFaulty(msg.src) ||
        nodeFaulty(msg.dst)) {
        dropMessage(msg, false);
        return;
    }
    ++counters_.retriesScheduled;
    resetForRetry(msg);
    // A message that had fully injected already left its injection
    // queue; retransmission needs the injection channel again.
    if (!msg.inQueue) {
        injQ_[static_cast<std::size_t>(msg.src)].push_back(msg.id);
        msg.inQueue = true;
    }
    msg.state = MsgState::WaitRetry;
    msg.retryAt = now_ + static_cast<Cycle>(cfg_.retryBackoff);
    retryList_.push_back(msg.id);
}

void
Network::resetForRetry(Message &msg)
{
    if (cwg_)
        cwg_->onMessageGone(msg.id);
    ++msg.epoch;
    msg.hdr = HeaderState{};
    msg.hdr.cur = msg.src;
    msg.hdr.offset = topo_->offsets(msg.src, msg.dst);
    msg.hdr.flow = proto_->initialFlow();
    msg.path.clear();
    msg.visited.clear();
    msg.srcRouted = false;
    msg.headerInjected = false;
    msg.srcCounter = 0;
    msg.srcK = msg.hdr.flow == FlowMode::Scout ? cfg_.scoutK : 0;
    msg.srcHold = msg.hdr.flow == FlowMode::PcsSetup;
    msg.injectedFlits = 0;
    msg.arrivedFlits = 0;
    msg.leadHop = -1;
    msg.releasedHops = 0;
    msg.headerAtDest = false;
    msg.inRcu = false;
    msg.beingKilled = false;
}

void
Network::dropMessage(Message &msg, bool lost)
{
    if (msg.terminal())
        return;
    if (cwg_)
        cwg_->onMessageGone(msg.id);
    msg.state = MsgState::Dropped;
    msg.lostToFault = lost;
    if (lost)
        ++counters_.lost;
    else
        ++counters_.dropped;
    if (msg.measured)
        ++counters_.measuredDropped;
    if (ClassStat *cs = classStat(msg.cls))
        ++cs->dropped;

    if (msg.inQueue) {
        auto &queue = injQ_[static_cast<std::size_t>(msg.src)];
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (*it == msg.id) {
                queue.erase(it);
                break;
            }
        }
        msg.inQueue = false;
        if (!nodeFaulty(msg.src))
            activateFront(msg.src);
    }
    retired_.push_back(msg.id);
}

void
Network::wakeRetries()
{
    for (std::size_t i = 0; i < retryList_.size();) {
        Message *msg = findMessage(retryList_[i]);
        if (!msg || msg->terminal() || msg->state != MsgState::WaitRetry) {
            retryList_[i] = retryList_.back();
            retryList_.pop_back();
            continue;
        }
        if (msg->retryAt <= now_) {
            msg->state = MsgState::Queued;
            noteActivity();
            if (!nodeFaulty(msg->src))
                activateFront(msg->src);
            retryList_[i] = retryList_.back();
            retryList_.pop_back();
            continue;
        }
        ++i;
    }
}

void
Network::synchronousRelease(Message &msg, int from_hop, int to_hop)
{
    const int lo = std::min(from_hop, to_hop);
    const int hi = std::max(from_hop, to_hop);
    for (int i = hi; i >= lo; --i)
        releaseHop(msg, i, true);
}

} // namespace tpnet
