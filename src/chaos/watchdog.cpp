#include "chaos/watchdog.hpp"

#include <algorithm>
#include <sstream>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/validator.hpp"

namespace tpnet {
namespace chaos {

namespace {

/** The observe() cycle that first sees a change stamped in cycle @p at:
 *  observe() runs one cycle past the step that made it. */
Cycle
seenAt(Cycle at)
{
    return at + 1;
}

/**
 * Whether the livelock checks judge @p msg. Queued and WaitRetry
 * messages are not watched: whatever is ahead of them owns their
 * progress (and is watched), and a healthy congested queue can
 * legally hold a message for a long time.
 */
bool
watched(const Message &msg)
{
    return !msg.terminal() && msg.state != MsgState::Queued &&
           msg.state != MsgState::WaitRetry;
}

} // namespace

void
Watchdog::report(const std::string &what)
{
    if (violations_.size() >= cfg_.maxViolations)
        return;
    std::ostringstream os;
    os << "cycle " << net_.now() << ": " << what;
    violations_.push_back(os.str());
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
        at = seenAt(net_.lastActivity()) + cfg_.globalStallBound;
    }
    if (cfg_.msgStallBound > 0) {
        net_.messageStore().forEach([&](const Message &msg) {
            if (watched(msg) && !std::binary_search(flagged_.begin(),
                                                    flagged_.end(), msg.id)) {
                at = std::min(at, seenAt(msg.lastAdvanced) +
                                      cfg_.msgStallBound);
            }
        });
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
    const Cycle since = seenAt(net_.lastActivity());
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
    // id-sorted flagged list: an id stays while its message is watched
    // and goes once the message retires or waits again.
    if (cfg_.msgStallBound == 0)
        return;
    const Cycle now = net_.now();
    const std::ptrdiff_t had = std::ssize(flagged_);
    std::ptrdiff_t next = 0;  // first old entry not yet passed
    std::ptrdiff_t kept = 0;  // old entries kept, compacted at the front
    net_.messageStore().forEach([&](const Message &msg) {
        if (!watched(msg))
            return;
        while (next < had && flagged_[next] < msg.id)
            ++next;
        if (next < had && flagged_[next] == msg.id) {
            flagged_[kept++] = flagged_[next++];
            return;
        }
        // Real progress stamps both, so lastAdvanced is never later.
        const Cycle moved = seenAt(msg.lastMoved);
        const Cycle advanced = seenAt(msg.lastAdvanced);
        if (now < advanced + cfg_.msgStallBound)
            return;
        std::ostringstream os;
        if (now >= moved + cfg_.msgStallBound) {
            os << "livelock: msg " << msg.id << " (" << msg.src << "->"
               << msg.dst << ", state " << static_cast<int>(msg.state)
               << ", epoch " << msg.epoch << ") made no progress for "
               << now - moved << " cycles while the network kept moving"
               << diagnoseFrozen(msg);
        } else {
            // The probe kept moving (churn) but no real progress was
            // made: the header is oscillating.
            os << "livelock: header oscillating: msg " << msg.id << " ("
               << msg.src << "->" << msg.dst << ", epoch " << msg.epoch
               << ") searched for " << now - advanced
               << " cycles (hops=" << msg.hdr.hops
               << ", backtracks=" << msg.backtracksTaken
               << ") without moving any data" << diagnoseFrozen(msg);
        }
        report(os.str());
        flagged_.push_back(msg.id);
    });
    // Drop the old entries no longer watched, then merge in the new.
    flagged_.erase(flagged_.begin() + kept, flagged_.begin() + had);
    std::inplace_merge(flagged_.begin(), flagged_.begin() + kept,
                       flagged_.end());
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
