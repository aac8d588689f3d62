#include "chaos/watchdog.hpp"

#include <algorithm>
#include <sstream>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/validator.hpp"

namespace tpnet {
namespace chaos {

Watchdog::Watchdog(Network &net, const WatchdogConfig &cfg)
    : net_(net), cfg_(cfg)
{
    lastComposite_ = activityComposite();
    lastActivity_ = net_.now();
}

void
Watchdog::report(const std::string &what)
{
    if (violations_.size() >= cfg_.maxViolations)
        return;
    std::ostringstream os;
    os << "cycle " << net_.now() << ": " << what;
    violations_.push_back(os.str());
}

std::uint64_t
Watchdog::activityComposite() const
{
    const Counters &c = net_.counters();
    return c.generated + c.delivered + c.dropped + c.lost +
           c.retransmits + c.retriesScheduled + c.headerMoves +
           c.backtracks + c.misroutes + c.detoursBuilt + c.setupAborts +
           c.dataCrossings + c.ctrlCrossings + c.posAcks + c.negAcks +
           c.killFlits + c.msgAcks + c.dataFlitsDelivered +
           c.dynamicFaults + c.messagesKilled + c.linksRestored;
}

void
Watchdog::observe()
{
    checkGlobalProgress();
    checkPerMessageProgress();
    if (cfg_.conserveEvery > 0 && net_.now() % cfg_.conserveEvery == 0)
        checkConservation();
    if (cfg_.validateEvery > 0 && net_.now() % cfg_.validateEvery == 0)
        runValidator();
}

Cycle
Watchdog::nextDeadline() const
{
    Cycle at = cycleNever;
    if (cfg_.globalStallBound > 0 && !deadlocked_ &&
        net_.activeMessages() > 0) {
        at = std::min(at, lastActivity_ + cfg_.globalStallBound);
    }
    if (cfg_.msgStallBound > 0) {
        for (const auto &kv : tracks_) {
            if (kv.second.flagged)
                continue;
            at = std::min(at,
                          kv.second.lastChange + cfg_.msgStallBound);
            at = std::min(at,
                          kv.second.lastChange2 + cfg_.msgStallBound);
        }
    }
    // Cadenced sweeps re-report persistent violations, so every
    // boundary is a deadline even when nothing looks wrong.
    const Cycle now = net_.now();
    if (cfg_.conserveEvery > 0) {
        at = std::min(at,
                      (now / cfg_.conserveEvery + 1) * cfg_.conserveEvery);
    }
    if (cfg_.validateEvery > 0) {
        at = std::min(at,
                      (now / cfg_.validateEvery + 1) * cfg_.validateEvery);
    }
    return at;
}

void
Watchdog::skipTo(Cycle upto)
{
    // Each skipped observe() with no live messages would have
    // refreshed the global-progress baseline; replay the last one.
    // With live messages and a frozen network the baseline is
    // untouched by observe(), so there is nothing to replay.
    if (net_.activeMessages() == 0) {
        lastComposite_ = activityComposite();
        lastActivity_ = upto;
    }
}

void
Watchdog::finalCheck()
{
    checkConservation();
    runValidator();
}

void
Watchdog::checkGlobalProgress()
{
    const std::uint64_t composite = activityComposite();
    if (composite != lastComposite_ || net_.activeMessages() == 0) {
        lastComposite_ = composite;
        lastActivity_ = net_.now();
        return;
    }
    if (cfg_.globalStallBound > 0 && !deadlocked_ &&
        net_.now() - lastActivity_ >= cfg_.globalStallBound) {
        std::ostringstream os;
        os << "deadlock: no token moved for "
           << net_.now() - lastActivity_ << " cycles with "
           << net_.activeMessages() << " live messages";
        // The CWG analyzer (when on) turns the symptom into a cause.
        if (const verify::CwgTracker *cwg = net_.cwg()) {
            if (!cwg->violations().empty()) {
                os << "; deadlock cycle: "
                   << cwg->violations().front().diagnosis;
            } else if (!cwg->lastCycleDiagnosis().empty()) {
                os << "; last observed " << cwg->lastCycleDiagnosis();
            }
        }
        report(os.str());
        deadlocked_ = true;
    }
}

std::uint64_t
Watchdog::signature(const Message &msg)
{
    // Any field that changes when the message makes progress of any
    // kind — probe movement, data movement, teardown, retry — feeds
    // the fingerprint.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(msg.state));
    mix(static_cast<std::uint64_t>(msg.epoch));
    mix(static_cast<std::uint64_t>(msg.hdr.hops));
    mix(msg.path.size());
    mix(static_cast<std::uint64_t>(msg.injectedFlits));
    mix(static_cast<std::uint64_t>(msg.arrivedFlits));
    mix(static_cast<std::uint64_t>(msg.retries));
    mix(static_cast<std::uint64_t>(msg.srcCounter));
    mix(static_cast<std::uint64_t>(msg.releasedHops));
    mix(static_cast<std::uint64_t>(msg.killWalks));
    mix(msg.beingKilled ? 1 : 0);
    mix(static_cast<std::uint64_t>(
        msg.leadHop < 0 ? 0u : static_cast<unsigned>(msg.leadHop)));
    return h;
}

std::uint64_t
Watchdog::progressSignature(const Message &msg)
{
    // Deliberately excludes hdr.hops, path.size(), and srcCounter: a
    // probe can churn those forever (search, backtrack, re-search)
    // without the message getting any closer to delivery. Every retry
    // bumps the epoch, so a legal abort-and-retry cycle still counts
    // as progress here.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(msg.state));
    mix(static_cast<std::uint64_t>(msg.epoch));
    mix(static_cast<std::uint64_t>(msg.injectedFlits));
    mix(static_cast<std::uint64_t>(msg.arrivedFlits));
    mix(static_cast<std::uint64_t>(msg.retries));
    mix(static_cast<std::uint64_t>(msg.releasedHops));
    mix(static_cast<std::uint64_t>(msg.killWalks));
    mix(msg.beingKilled ? 1 : 0);
    mix(static_cast<std::uint64_t>(
        msg.leadHop < 0 ? 0u : static_cast<unsigned>(msg.leadHop)));
    return h;
}

std::string
Watchdog::diagnoseFrozen(MsgId id, const Message &msg) const
{
    const verify::CwgTracker *cwg = net_.cwg();
    if (!cwg)
        return "";
    const std::string waits = cwg->describeWaits(id);
    if (!waits.empty())
        return "; waiting on " + waits;
    if (msg.state == MsgState::Active && !msg.path.empty() &&
        !msg.inRcu && !msg.beingKilled) {
        // Holds a circuit, waits on nothing, and no RCU will ever
        // serve it again: the probe was lost (e.g. destroyed on a
        // failing wire without salvage).
        return "; stranded circuit: holds " +
               std::to_string(msg.path.size()) +
               " hops with no probe in flight and no RCU entry";
    }
    return "";
}

void
Watchdog::checkPerMessageProgress()
{
    // Tracks grow with live messages and are pruned as they retire.
    // Queued/WaitRetry messages are skipped: their progress is owned by
    // whatever is ahead of them (which is tracked), and a healthy
    // congested queue can legally hold a message for a long time.
    std::unordered_map<MsgId, MsgTrack> fresh;
    fresh.reserve(tracks_.size());
    for (MsgId id : net_.liveMessageIds()) {
        const Message *msg = net_.findMessage(id);
        if (!msg || msg->terminal())
            continue;
        if (msg->state == MsgState::Queued ||
            msg->state == MsgState::WaitRetry) {
            continue;
        }
        const std::uint64_t sig = signature(*msg);
        const std::uint64_t sig2 = progressSignature(*msg);
        MsgTrack track;
        auto it = tracks_.find(id);
        if (it != tracks_.end()) {
            track = it->second;
            if (track.sig != sig) {
                track.sig = sig;
                track.lastChange = net_.now();
            }
            if (track.sig2 != sig2) {
                track.sig2 = sig2;
                track.lastChange2 = net_.now();
            }
        } else {
            track.sig = sig;
            track.sig2 = sig2;
            track.lastChange = net_.now();
            track.lastChange2 = net_.now();
        }
        if (!track.flagged && cfg_.msgStallBound > 0 &&
            net_.now() - track.lastChange >= cfg_.msgStallBound) {
            std::ostringstream os;
            os << "livelock: msg " << id << " (" << msg->src << "->"
               << msg->dst << ", state "
               << static_cast<int>(msg->state) << ", epoch "
               << msg->epoch << ") made no progress for "
               << net_.now() - track.lastChange
               << " cycles while the network kept moving"
               << diagnoseFrozen(id, *msg);
            report(os.str());
            track.flagged = true;
        } else if (!track.flagged && cfg_.msgStallBound > 0 &&
                   net_.now() - track.lastChange2 >=
                       cfg_.msgStallBound) {
            // The full signature kept changing (probe churn) but no
            // real progress was made: the header is oscillating.
            std::ostringstream os;
            os << "livelock: header oscillating: msg " << id << " ("
               << msg->src << "->" << msg->dst << ", epoch "
               << msg->epoch << ") searched for "
               << net_.now() - track.lastChange2
               << " cycles (hops=" << msg->hdr.hops
               << ", backtracks=" << msg->backtracksTaken
               << ") without moving any data"
               << diagnoseFrozen(id, *msg);
            report(os.str());
            track.flagged = true;
        }
        fresh.emplace(id, track);
    }
    tracks_ = std::move(fresh);
}

void
Watchdog::checkConservation()
{
    // Every data flit a live message has injected must be delivered or
    // resident in the FIFOs of its reserved path. Messages mid-teardown
    // are exempt (kill walks purge flits by design); so are fresh
    // retry states (their counters were reset with the purge).
    for (MsgId id : net_.liveMessageIds()) {
        const Message *msg = net_.findMessage(id);
        if (!msg || msg->terminal() || msg->beingKilled)
            continue;
        if (msg->state != MsgState::Active &&
            msg->state != MsgState::Delivered) {
            continue;
        }
        int resident = 0;
        for (const PathHop &hop : msg->path) {
            const VcState &vc = net_.vc(hop.link, hop.vc);
            if (vc.owner != msg->id)
                continue;
            for (std::size_t i = 0; i < vc.size(); ++i) {
                const Flit &flit = net_.dibuFlit(hop.link, hop.vc, i);
                if (flit.msg == msg->id && isDataLane(flit.type))
                    ++resident;
            }
        }
        const int inFlight = msg->injectedFlits - msg->arrivedFlits;
        if (resident != inFlight) {
            std::ostringstream os;
            os << "flit conservation: msg " << id << " injected "
               << msg->injectedFlits << ", delivered "
               << msg->arrivedFlits << ", but " << resident
               << " flits resident in its path (expected " << inFlight
               << ")";
            report(os.str());
        }
    }
}

void
Watchdog::runValidator()
{
    for (const Violation &v : validateNetwork(net_))
        report("validator: " + v.what);
}

} // namespace chaos
} // namespace tpnet
