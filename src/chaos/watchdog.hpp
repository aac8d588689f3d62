/**
 * @file
 * Progress watchdog for chaos campaigns.
 *
 * Runs alongside a Network (one observe() per cycle) and turns silent
 * wedges into reported violations:
 *
 *  - deadlock: no token of any kind moved network-wide for a bound
 *    number of cycles while messages are live (Theorem 3 says this
 *    must never happen);
 *  - livelock/starvation: one message made no progress for a (much
 *    larger) bound while the rest of the network kept moving —
 *    "blocked but live" is legal only for bounded spans. A message
 *    whose probe kept searching without any real progress is reported
 *    as an oscillating header;
 *  - flit-conservation: every data flit a live message has injected
 *    is delivered or resident in exactly the FIFOs of its reserved
 *    path (messages being torn down are exempt: their flits are
 *    deliberately purged);
 *  - structural: periodic validateNetwork() sweeps.
 *
 * Neither stall check infers movement itself. The deadlock check reads
 * the network's progress clock (Network::lastActivity, ticked by
 * Counters::tokenMoves()), the same clock the simulator's cfg.watchdog
 * panic reads. The livelock checks read each message's progress record,
 * which the network stamps where the message changes (Network::stamp):
 * Message::lastMoved for any move, probe churn included, and
 * Message::lastAdvanced for real progress only. Unlike the panic, this
 * watchdog records violations and lets the campaign driver finish and
 * report.
 */

#ifndef TPNET_CHAOS_WATCHDOG_HPP
#define TPNET_CHAOS_WATCHDOG_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

class Network;
struct Message;
struct SnapshotAccess;

namespace chaos {

/** Bounds and cadences for the watchdog's checks. */
struct WatchdogConfig
{
    /// Deadlock bound: live messages but no token moved for W cycles.
    Cycle globalStallBound = 3000;
    /// Livelock bound: one message frozen for W cycles while the
    /// network as a whole kept moving.
    Cycle msgStallBound = 30000;
    /// Cadence of full structural validateNetwork() sweeps (0 = off).
    Cycle validateEvery = 512;
    /// Cadence of per-message flit-conservation sweeps (0 = off).
    Cycle conserveEvery = 256;
    /// Stop collecting after this many violations (the run is doomed).
    std::size_t maxViolations = 64;
};

/** Observes one Network; call observe() after every Network::step(). */
class Watchdog
{
    friend struct ::tpnet::SnapshotAccess;

  public:
    Watchdog(Network &net, const WatchdogConfig &cfg) : net_(net), cfg_(cfg)
    {}

    /** Run this cycle's checks. */
    void observe();

    /** End-of-campaign sweep (structural + conservation, uncadenced). */
    void finalCheck();

    /** A global stall was detected; the campaign cannot finish. */
    bool deadlocked() const { return deadlocked_; }

    /**
     * Earliest future observe() cycle at which this watchdog could do
     * anything besides refresh its bookkeeping: fire a deadlock or
     * livelock report, or run a cadenced conservation/validator sweep.
     * cycleNever when no check is pending. A cycle-skipping driver
     * must execute the iteration whose observe() lands here.
     */
    Cycle nextDeadline() const;

    /**
     * No-op: the watchdog keeps no clock of its own, so an idle skip
     * leaves nothing to replay. It stays only for the perfbench
     * replica's call (perfbench/replica.cpp) and goes when ROADMAP
     * item 9 deletes the replica.
     */
    void skipTo(Cycle) {}

    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  private:
    void report(const std::string &what);
    void checkGlobalProgress();
    void checkPerMessageProgress();
    void checkConservation();
    void runValidator();

    /** CWG-informed annotation of a frozen message ("" when none). */
    std::string diagnoseFrozen(const Message &msg) const;

    Network &net_;
    WatchdogConfig cfg_;
    std::vector<std::string> violations_;

    bool deadlocked_ = false;

    /// Watched messages already reported, sorted by id: one report per
    /// stretch a message is watched.
    std::vector<MsgId> flagged_;
};

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_WATCHDOG_HPP
