/**
 * @file
 * The heal engine of knot-triggered deadlock recovery
 * (cfg.recoveryMode; DESIGN.md Section 6g).
 *
 * Runs once per cycle, right after the CWG tracker's end-of-cycle
 * sweep: every knot the tracker confirmed this cycle either gets a
 * victim (selected by the configured policy over the knot's reachable
 * closure) whose circuit is torn down with cause Teardown::Heal and
 * retransmitted from the source on an exponential backoff, or — when
 * the same knot has re-formed past the heal budget — escalates back
 * into a real violation for the watchdog machinery (the livelock
 * guard).
 *
 * The heal episode closes in Network::finishTeardown
 * (fault/recovery.cpp), once the victim's walk has fully drained: only
 * then are the knot's trios actually free, so that is the point the
 * heal latency is measured and the tracker is told the hash may be
 * re-detected.
 */

#include "core/network.hpp"
#include "verify/victim.hpp"

namespace tpnet {

void
Network::stepHeals()
{
    for (const verify::PendingKnot &knot : cwg_->takePendingKnots()) {
        ++counters_.knotsDetected;
        const int heals = ++knotHealCount_[knot.cycle.hash];
        if (heals > cfg_.maxHealAttempts) {
            ++counters_.healEscalations;
            cwg_->escalate(knot);
            continue;
        }
        const MsgId id = verify::selectVictim(
            *this, knot.closure, cfg_.victimPolicy, victimRng_);
        Message *victim = id == invalidMsg ? nullptr : findMessage(id);
        if (!victim) {
            // Every closure member is already terminal or being torn
            // down: the knot is dissolving without our help. Re-arm
            // the hash so a re-formation is detected afresh.
            cwg_->knotHealed(knot.cycle.hash);
            continue;
        }
        healVictim(*victim, knot.cycle.hash);
    }
}

void
Network::healVictim(Message &msg, std::uint64_t hash)
{
    ++counters_.victimsAborted;
    ++msg.healAttempts;
    msg.lastHealAt = now_;
    msg.healStartedAt = now_;
    msg.healKnotHash = hash;
    healLog_.push_back({now_, hash, msg.id, msg.healAttempts});
    if (trace_)
        trace_->probeEvent(now_, msg, ProbeEvent::Aborted);
    tearDown(msg, Teardown::Heal);
}

} // namespace tpnet
