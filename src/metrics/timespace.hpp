/**
 * @file
 * Time-space diagram builder (paper Fig. 1).
 *
 * A TimeSpaceTrace records every event of one message and renders an
 * ASCII time-space diagram: one row per link of the path, one column
 * per cycle, showing the routing header advancing (H) or backtracking
 * (B), the data flits pipelining behind it (digits, T for the tail),
 * and the acknowledgment traffic returning on the complementary
 * channels (<, D for the destination-reached ack, R for detour
 * releases, K for kill flits).
 *
 * It also measures the dynamic separation between the header and the
 * first data flit — the quantity the scouting distance K bounds
 * (Section 2.2: the gap can grow up to 2K - 1 links while the header
 * advances).
 */

#ifndef TPNET_METRICS_TIMESPACE_HPP
#define TPNET_METRICS_TIMESPACE_HPP

#include <string>
#include <vector>

#include "obs/trace_format.hpp"

namespace tpnet {

/** Records one message's events and renders the Fig. 1 diagram. */
class TimeSpaceTrace : public obs::EventSink
{
  public:
    /** @param target message to record (offer it first, id is known). */
    explicit TimeSpaceTrace(MsgId target) : target_(target) {}

    /**
     * Take one event of a live run or of a recorded trace
     * (obs::replayTimeSpace); events of other messages are ignored.
     */
    void onEvent(const obs::TraceEvent &ev) override;

    /** Number of recorded events. */
    std::size_t events() const { return events_.size(); }

    /**
     * Maximum link separation between the probe's frontier and the
     * leading data flit observed while the probe was advancing.
     */
    int maxHeaderLead() const;

    /** Cycle of the first and last recorded event. */
    Cycle firstCycle() const { return first_; }
    Cycle lastCycle() const { return last_; }

    /**
     * Render the diagram. Rows are path hops (top = first link), the
     * column axis is time; rendering truncates at @p max_cols columns.
     */
    std::string render(std::size_t max_cols = 120) const;

  private:
    struct Event
    {
        Cycle t = 0;
        int row = 0;
        char sym = '?';
    };

    void add(Cycle t, int row, char sym);

    MsgId target_;
    bool backtracking_ = false;
    std::vector<Event> events_;
    std::vector<std::pair<Cycle, int>> headerAt_;
    std::vector<std::pair<Cycle, int>> leadDataAt_;
    Cycle first_ = ~Cycle{0};
    Cycle last_ = 0;
    int rows_ = 0;
};

} // namespace tpnet

#endif // TPNET_METRICS_TIMESPACE_HPP
