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

Cycle
Watchdog::lastProgress() const
{
    return net_.lastActivity() + 1;
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
        at = std::min(at, lastProgress() + cfg_.globalStallBound);
    }
    if (cfg_.msgStallBound > 0) {
        for (const MsgTrack &track : tracks_) {
            if (track.flagged)
                continue;
            at = std::min(at, track.lastChange + cfg_.msgStallBound);
            at = std::min(at, track.lastChange2 + cfg_.msgStallBound);
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
Watchdog::finalCheck()
{
    checkConservation();
    runValidator();
}

void
Watchdog::checkGlobalProgress()
{
    if (cfg_.globalStallBound == 0 || deadlocked_ ||
        net_.activeMessages() == 0) {
        return;
    }
    const Cycle since = lastProgress();
    if (net_.now() < since + cfg_.globalStallBound)
        return;
    std::ostringstream os;
    os << "deadlock: no token moved for " << net_.now() - since
       << " cycles with " << net_.activeMessages() << " live messages";
    // The CWG analyzer (when on) turns the symptom into a cause.
    if (const verify::CwgTracker *cwg = net_.cwg()) {
        if (!cwg->violations().empty()) {
            os << "; deadlock cycle: " << cwg->violations().front().diagnosis;
        } else if (!cwg->lastCycleDiagnosis().empty()) {
            os << "; last observed " << cwg->lastCycleDiagnosis();
        }
    }
    report(os.str());
    deadlocked_ = true;
}

Watchdog::Signatures
Watchdog::signatures(const Message &msg)
{
    // Any field that changes when the message makes progress of any
    // kind — probe movement, data movement, teardown, retry — feeds
    // `all`. `real` skips hdr.hops, path.size() and srcCounter: a probe
    // can churn those forever (search, backtrack, re-search) without
    // the message getting any closer to delivery. Every retry bumps the
    // epoch, so a legal abort-and-retry cycle still counts as progress.
    Signatures h{0xcbf29ce484222325ull, 0xcbf29ce484222325ull};
    auto mix = [](std::uint64_t &into, std::uint64_t v) {
        into ^= v;
        into *= 0x100000001b3ull;
    };
    auto both = [&h, &mix](std::uint64_t v) {
        mix(h.all, v);
        mix(h.real, v);
    };
    both(static_cast<std::uint64_t>(msg.state));
    both(static_cast<std::uint64_t>(msg.epoch));
    mix(h.all, static_cast<std::uint64_t>(msg.hdr.hops));
    mix(h.all, msg.path.size());
    both(static_cast<std::uint64_t>(msg.injectedFlits));
    both(static_cast<std::uint64_t>(msg.arrivedFlits));
    both(static_cast<std::uint64_t>(msg.retries));
    mix(h.all, static_cast<std::uint64_t>(msg.srcCounter));
    both(static_cast<std::uint64_t>(msg.releasedHops));
    both(static_cast<std::uint64_t>(msg.killWalks));
    both(msg.tearingDown() ? 1 : 0);
    both(static_cast<std::uint64_t>(
        msg.leadHop < 0 ? 0u : static_cast<unsigned>(msg.leadHop)));
    return h;
}

std::string
Watchdog::diagnoseFrozen(const Message &msg) const
{
    const verify::CwgTracker *cwg = net_.cwg();
    if (!cwg)
        return "";
    const std::string waits = cwg->describeWaits(msg.id);
    if (!waits.empty())
        return "; waiting on " + waits;
    if (msg.state == MsgState::Active && !msg.path.empty() &&
        !msg.inRcu && !msg.tearingDown()) {
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
    // One walk of the live messages in id order, merged against the
    // id-sorted tracks: a track lives while its message is watched and
    // goes once the message retires or waits again. Queued/WaitRetry
    // messages are skipped: their progress is owned by whatever is
    // ahead of them (which is tracked), and a healthy congested queue
    // can legally hold a message for a long time.
    const Cycle now = net_.now();
    auto old = tracks_.cbegin();
    nextTracks_.clear();
    net_.messageStore().forEach([&](const Message &msg) {
        if (msg.terminal() || msg.state == MsgState::Queued ||
            msg.state == MsgState::WaitRetry) {
            return;
        }
        while (old != tracks_.cend() && old->id < msg.id)
            ++old;
        const Signatures sig = signatures(msg);
        MsgTrack track{msg.id, sig.all, sig.real, now, now, false};
        if (old != tracks_.cend() && old->id == msg.id) {
            track = *old;
            if (track.sig != sig.all) {
                track.sig = sig.all;
                track.lastChange = now;
            }
            if (track.sig2 != sig.real) {
                track.sig2 = sig.real;
                track.lastChange2 = now;
            }
        }
        if (!track.flagged && cfg_.msgStallBound > 0 &&
            now - track.lastChange >= cfg_.msgStallBound) {
            std::ostringstream os;
            os << "livelock: msg " << msg.id << " (" << msg.src << "->"
               << msg.dst << ", state " << static_cast<int>(msg.state)
               << ", epoch " << msg.epoch << ") made no progress for "
               << now - track.lastChange
               << " cycles while the network kept moving"
               << diagnoseFrozen(msg);
            report(os.str());
            track.flagged = true;
        } else if (!track.flagged && cfg_.msgStallBound > 0 &&
                   now - track.lastChange2 >= cfg_.msgStallBound) {
            // The full signature kept changing (probe churn) but no
            // real progress was made: the header is oscillating.
            std::ostringstream os;
            os << "livelock: header oscillating: msg " << msg.id << " ("
               << msg.src << "->" << msg.dst << ", epoch " << msg.epoch
               << ") searched for " << now - track.lastChange2
               << " cycles (hops=" << msg.hdr.hops
               << ", backtracks=" << msg.backtracksTaken
               << ") without moving any data" << diagnoseFrozen(msg);
            report(os.str());
            track.flagged = true;
        }
        nextTracks_.push_back(track);
    });
    tracks_.swap(nextTracks_);
}

void
Watchdog::checkConservation()
{
    // Every data flit a live message has injected must be delivered or
    // resident in the FIFOs of its reserved path. Messages mid-teardown
    // are exempt (kill walks purge flits by design); so are fresh
    // retry states (their counters were reset with the purge).
    net_.messageStore().forEach([this](const Message &msg) {
        if (msg.terminal() || msg.tearingDown())
            return;
        if (msg.state != MsgState::Active &&
            msg.state != MsgState::Delivered) {
            return;
        }
        int resident = 0;
        for (const PathHop &hop : msg.path) {
            const VcState &vc = net_.vc(hop.link, hop.vc);
            if (vc.owner != msg.id)
                continue;
            for (std::size_t i = 0; i < vc.size(); ++i) {
                const Flit &flit = net_.dibuFlit(hop.link, hop.vc, i);
                if (flit.msg == msg.id && isDataLane(flit.type))
                    ++resident;
            }
        }
        const int inFlight = msg.injectedFlits - msg.arrivedFlits;
        if (resident != inFlight) {
            std::ostringstream os;
            os << "flit conservation: msg " << msg.id << " injected "
               << msg.injectedFlits << ", delivered " << msg.arrivedFlits
               << ", but " << resident
               << " flits resident in its path (expected " << inFlight
               << ")";
            report(os.str());
        }
    });
}

void
Watchdog::runValidator()
{
    for (const Violation &v : validateNetwork(net_))
        report("validator: " + v.what);
}

} // namespace chaos
} // namespace tpnet
