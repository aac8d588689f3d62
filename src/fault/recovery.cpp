/**
 * @file
 * Circuit teardown (paper Sections 2.4, 4.0, 6.2; Fig. 16; DESIGN.md
 * Section 6c).
 *
 * A circuit ends early for one of three causes (Message::teardown), and
 * all of them share one mechanism: kill flits release the circuit hop
 * by hop toward both ends, and once every walk has drained the source
 * retries, retransmits or gives up.
 *  - Fault: a dynamic failure interrupted the circuit. The routers
 *    spanning the failure release the broken hops at once and launch
 *    walks toward the source and the destination. With tail
 *    acknowledgments the source retransmits; without them the message
 *    is lost (a design trade-off the paper calls out explicitly).
 *  - Abort: a probe exhausted its search budget or stalled past the
 *    limit. The source re-tries after a backoff, up to maxRetries, after
 *    which the message is declared undeliverable (the
 *    higher-level-protocol action of Section 4.0).
 *  - Heal: the message was sacrificed to a deadlock knot
 *    (flow/heal.cpp). The source retransmits on the heal backoff,
 *    outside the retry budget.
 * An abort or a heal has no broken hop: its one walk starts at the
 * probe's frontier.
 */

#include <algorithm>

#include "core/network.hpp"

namespace tpnet {

namespace {

/// Base of the per-victim exponential retransmission backoff, in cycles
/// (doubles per heal of the same message, capped).
constexpr Cycle healBackoffBase = 16;

} // namespace

void
Network::abortSetup(Message &msg)
{
    if (msg.tearingDown() || msg.terminal())
        return;
    ++counters_.setupAborts;
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::Aborted);
    tearDown(msg, Teardown::Abort);
}

void
Network::killMessage(Message &msg)
{
    if (msg.tearingDown() || msg.terminal())
        return;
    ++counters_.messagesKilled;
    tearDown(msg, Teardown::Fault);
}

void
Network::tearDown(Message &msg, Teardown cause)
{
    // A torn-down circuit's probe stops competing for channels: its wait
    // edges must go with it or they would read as phantom deadlock
    // members for as long as the teardown walks take.
    if (cwg_)
        cwg_->onMessageGone(msg.id);
    msg.teardown = cause;

    // Hops on or adjacent to failed components are released by the
    // spanning routers the moment the failure is detected. Without such
    // a hop the circuit is released from its frontier.
    const int last = static_cast<int>(msg.path.size()) - 1;
    int lo = last + 1;  // first broken hop
    int hi = -1;        // last broken hop
    if (cause == Teardown::Fault) {
        for (int i = 0; i <= last; ++i) {
            const Link &lk =
                link(msg.path[static_cast<std::size_t>(i)].link);
            if (lk.faulty || nodeFaulty(lk.src) || nodeFaulty(lk.dst)) {
                lo = std::min(lo, i);
                hi = std::max(hi, i);
            }
        }
    }
    if (hi < 0)
        hi = last;
    else
        synchronousRelease(msg, lo, hi);

    // Count both walks before launching either, so one that completes
    // during its launch cannot finish the teardown early.
    const bool up = lo > 0;
    const bool down = hi < last;
    msg.killWalks = static_cast<int>(up) + static_cast<int>(down);

    Flit kill;
    kill.msg = msg.id;
    kill.epoch = msg.epoch;
    if (up) {
        // The router just above the break releases its hop and sends
        // the walk on toward the source.
        releaseHop(msg, lo - 1, true);
        ++counters_.killFlits;
        kill.type = FlitType::KillUp;
        kill.hopIdx = lo - 2;
        relayUpstream(msg, kill);
    }
    if (down) {
        kill.type = FlitType::KillDown;
        kill.hopIdx = hi + 1;
        sendKillDown(msg, kill);
    }
    if (!up && !down)
        finishTeardown(msg);
}

void
Network::sendKillDown(Message &msg, Flit kill)
{
    Link &next = link(msg.path[static_cast<std::size_t>(kill.hopIdx)].link);
    if (next.faulty || nodeFaulty(next.dst)) {
        cutWalkShort(msg, kill);
        return;
    }
    kill.readyAt = now_ + 1;
    next.ctrlQ.push_back(kill);
    ctrlWake(next);
}

void
Network::cutWalkShort(Message &msg, const Flit &flit)
{
    // Recovery of last resort (Section 2.4): the rest of the walker's
    // span is released synchronously and its arrival applied at once.
    if (flit.type == FlitType::KillDown) {
        synchronousRelease(msg, flit.hopIdx,
                           static_cast<int>(msg.path.size()) - 1);
        finishWalk(msg);
        return;
    }
    if (flit.hopIdx >= 0)
        synchronousRelease(msg, flit.hopIdx, 0);
    upstreamReachedSource(msg, flit);
}

void
Network::finishWalk(Message &msg)
{
    if (msg.killWalks > 0)
        --msg.killWalks;
    if (msg.killWalks == 0)
        finishTeardown(msg);
}

void
Network::finishTeardown(Message &msg)
{
    const Teardown cause = msg.teardown;
    msg.teardown = Teardown::None;
    if (cause == Teardown::Heal) {
        // Only now are the knot's trios free: close the heal episode
        // and let the tracker re-detect the hash should it re-form.
        const double latency =
            static_cast<double>(now_ - msg.healStartedAt);
        counters_.healLatency.add(latency);
        counters_.healLatencyHist.add(latency);
        if (cwg_)
            cwg_->knotHealed(msg.healKnotHash);
        msg.healKnotHash = 0;
    }

    // Only a fault kill can catch a delivered message: its held path
    // (awaiting the message acknowledgment) was torn down, and the
    // MsgAck may even have landed while the walks were out.
    if (msg.terminal())
        return;
    if (msg.state == MsgState::Delivered) {
        msg.state = MsgState::Complete;
        retired_.push_back(msg.id);
        return;
    }

    const bool endpointDead = nodeFaulty(msg.src) || nodeFaulty(msg.dst);
    switch (cause) {
      case Teardown::Heal:
        if (endpointDead)
            break;
        // Heals do not consume the ordinary retry budget: the livelock
        // guard is the per-knot heal budget, not maxRetries.
        ++counters_.healRetransmits;
        requeue(msg,
                now_ + (healBackoffBase << std::min(msg.healAttempts - 1, 6)));
        return;

      case Teardown::Abort:
        ++msg.retries;
        if (msg.retries > cfg_.maxRetries || endpointDead)
            break;
        ++counters_.retriesScheduled;
        requeue(msg, now_ + static_cast<Cycle>(cfg_.retryBackoff));
        return;

      default:  // Teardown::Fault
        if (!cfg_.tailAck) {
            // No retransmission support: the interrupted message is
            // lost.
            dropMessage(msg, true);
            return;
        }
        if (endpointDead || msg.retries >= cfg_.maxRetries)
            break;
        // Reliable delivery: the source retransmits the message.
        ++counters_.retransmits;
        ++msg.retries;
        requeue(msg, now_);
        return;
    }
    // Undeliverable, not lost — retransmission "does not guarantee
    // message delivery because the destination node may have become
    // faulty or unreachable" (Section 2.4).
    dropMessage(msg, false);
}

void
Network::requeue(Message &msg, Cycle at)
{
    if (cwg_)
        cwg_->onMessageGone(msg.id);
    ++msg.epoch;
    startAttempt(msg);
    msg.path.clear();
    msg.visited.clear();
    msg.srcRouted = false;
    msg.headerInjected = false;
    msg.srcCounter = 0;
    msg.injectedFlits = 0;
    msg.arrivedFlits = 0;
    msg.leadHop = -1;
    msg.releasedHops = 0;
    msg.headerAtDest = false;
    msg.inRcu = false;

    // A message that had fully injected already left its injection
    // queue; the new attempt needs the injection channel again.
    if (!msg.inQueue) {
        injQ_[static_cast<std::size_t>(msg.src)].push_back(msg.id);
        msg.inQueue = true;
    }
    if (at == now_) {
        msg.state = MsgState::Queued;
        activateFront(msg.src);
        return;
    }
    msg.state = MsgState::WaitRetry;
    msg.retryAt = at;
    retryList_.push_back(msg.id);
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
