/**
 * @file
 * Fault schedules: scripted and randomized fault timelines.
 *
 * An explicit timeline of FaultEvents — node kills, permanent link
 * kills, and intermittent link faults (down for N cycles, then
 * restored) — scripted by a test or sampled up front from a seed, so a
 * failing chaos campaign is replayable from its seed alone. RunLoop
 * fires the due events at the start of each cycle through
 * Network::strike, the call the Bernoulli fault processes make: a
 * pinned victim fails if still up, an open one is drawn at fire time.
 */

#ifndef TPNET_CHAOS_FAULT_SCHEDULE_HPP
#define TPNET_CHAOS_FAULT_SCHEDULE_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "sim/rng.hpp"

namespace tpnet {
namespace chaos {

/** Parameters for randomized schedule generation. */
struct ScheduleSpec
{
    Cycle horizon = 20000;   ///< faults strike in [earliest, horizon)
    Cycle earliest = 100;    ///< let some traffic build up first
    int nodeKills = 0;
    int linkKills = 0;
    int intermittents = 0;
    Cycle downMin = 100;     ///< intermittent outage duration range
    Cycle downMax = 1000;
};

/** An ordered fault timeline applied against a Network as it runs. */
class FaultSchedule
{
    friend struct ::tpnet::SnapshotAccess;

  public:
    FaultSchedule() = default;

    /** A scripted timeline (any order, as for add()). */
    explicit FaultSchedule(std::vector<FaultEvent> events)
        : events_(std::move(events))
    {}

    /** Script one event (any order; the schedule sorts on first use). */
    void add(const FaultEvent &ev);

    /**
     * Sample a randomized timeline: fire times uniform over
     * [spec.earliest, spec.horizon), victims drawn at fire time,
     * intermittent outages uniform in [downMin, downMax].
     */
    static FaultSchedule randomized(const ScheduleSpec &spec, Rng &rng);

    /**
     * Strike every event due at net.now(), drawing open victims with
     * @p rng; events that find no feasible victim are skipped and
     * counted.
     */
    void apply(Network &net, Rng &rng);

    /** All events at or before @p cycle have fired (or been skipped). */
    bool exhausted() const { return next_ >= events_.size(); }

    /**
     * Fire cycle of the next pending event, or cycleNever when the
     * timeline is exhausted (event-engine cycle skipping: the driver
     * must step the cycle this event is due).
     */
    Cycle nextEventAt();

    std::size_t fired() const { return fired_; }
    std::size_t skipped() const { return skipped_; }
    std::size_t size() const { return events_.size(); }
    const std::vector<FaultEvent> &events() const { return events_; }

    /**
     * Every event that actually fired, with its victim *resolved*
     * (open victims pinned to the node/port that was drawn). Replaying
     * these as scripted events reproduces the exact fault timeline
     * without consuming any fault RNG — the basis of event-level
     * shrinking.
     */
    const std::vector<FaultEvent> &firedEvents() const
    {
        return firedEvents_;
    }

  private:
    std::vector<FaultEvent> events_;
    std::vector<FaultEvent> firedEvents_;
    std::size_t next_ = 0;
    std::size_t fired_ = 0;
    std::size_t skipped_ = 0;
    bool sorted_ = false;
};

/**
 * Compact one-line spec of a pinned event list, for replay command
 * lines: `at:kind:node:port:down` per event, comma-separated, kind in
 * {n, l, i} (e.g. "120:n:5:-1:0,450:i:7:3:900").
 */
std::string formatFaultEvents(const std::vector<FaultEvent> &events);

/** Inverse of formatFaultEvents. @return false on malformed input. */
bool parseFaultEvents(const std::string &spec,
                      std::vector<FaultEvent> *out);

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_FAULT_SCHEDULE_HPP
