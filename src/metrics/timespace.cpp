#include "metrics/timespace.hpp"

#include <algorithm>
#include <sstream>

namespace tpnet {

void
TimeSpaceTrace::add(Cycle t, int row, char sym)
{
    events_.push_back({t, row, sym});
    first_ = std::min(first_, t);
    last_ = std::max(last_, t);
    rows_ = std::max(rows_, row + 1);
}

void
TimeSpaceTrace::onEvent(const obs::TraceEvent &ev)
{
    if (ev.msg != target_)
        return;
    const Cycle now = ev.cycle;
    const auto type = static_cast<FlitType>(ev.flitType);

    switch (ev.kind) {
      case obs::TraceEventKind::Probe:
        if (static_cast<ProbeEvent>(ev.detail) == ProbeEvent::Backtracked)
            backtracking_ = true;
        return;
      case obs::TraceEventKind::FlitDelivered:
        if (ev.seq == 1)
            leadDataAt_.emplace_back(now, ev.hop + 1);
        return;
      case obs::TraceEventKind::FlitCrossed:
        break;
      default:
        return;
    }

    if (ev.vc >= 0) {  // data lane
        if (type == FlitType::Header) {
            add(now, ev.hop, 'H');
            headerAt_.emplace_back(now, ev.hop);
        } else {
            const char sym = type == FlitType::Tail
                ? 'T'
                : static_cast<char>('0' + ev.seq % 10);
            add(now, ev.hop, sym);
            if (ev.seq == 1)
                leadDataAt_.emplace_back(now, ev.hop);
        }
        return;
    }

    switch (type) {
      case FlitType::Header:
        // Forward header crosses hop ev.hop; a backtracking header
        // recrosses hop ev.hop + 1 in reverse.
        if (backtracking_) {
            add(now, ev.hop + 1, 'B');
            headerAt_.emplace_back(now, ev.hop);
            backtracking_ = false;
        } else {
            add(now, ev.hop, 'H');
            headerAt_.emplace_back(now, ev.hop);
        }
        break;
      case FlitType::AckPos:
      case FlitType::AckNeg:
        add(now, ev.hop + 1, '<');
        break;
      case FlitType::PathDone:
        add(now, ev.hop + 1, 'D');
        break;
      case FlitType::Release:
        add(now, ev.hop + 1, 'R');
        break;
      case FlitType::KillUp:
      case FlitType::KillDown:
        add(now, ev.hop, 'K');
        break;
      case FlitType::MsgAck:
        add(now, ev.hop + 1, 'A');
        break;
      default:
        break;
    }
}

int
TimeSpaceTrace::maxHeaderLead() const
{
    // Walk both position series in time order; the lead at any instant
    // is header frontier minus leading-data frontier (0 before data
    // enters the network counts from the source gate).
    int lead = 0;
    std::size_t di = 0;
    int data_pos = 0;
    for (const auto &[t, hpos] : headerAt_) {
        while (di < leadDataAt_.size() && leadDataAt_[di].first <= t) {
            data_pos = std::max(data_pos, leadDataAt_[di].second + 1);
            ++di;
        }
        lead = std::max(lead, hpos + 1 - data_pos);
    }
    return lead;
}

std::string
TimeSpaceTrace::render(std::size_t max_cols) const
{
    if (events_.empty())
        return "(no events)\n";

    const Cycle t0 = first_;
    const std::size_t cols =
        std::min<std::size_t>(last_ - t0 + 1, max_cols);
    std::vector<std::string> grid(
        static_cast<std::size_t>(rows_), std::string(cols, '.'));

    for (const Event &e : events_) {
        const Cycle col = e.t - t0;
        if (col >= cols)
            continue;
        char &cell = grid[static_cast<std::size_t>(e.row)][col];
        // Headers and kills dominate; data overwrite dots and acks.
        if (cell == '.' || e.sym == 'H' || e.sym == 'B' || e.sym == 'K')
            cell = e.sym;
    }

    std::ostringstream os;
    os << "time ->  (cycle " << t0 << " .. " << t0 + cols - 1 << ")\n";
    for (int r = 0; r < rows_; ++r) {
        os << "link " << (r < 10 ? " " : "") << r << " |"
           << grid[static_cast<std::size_t>(r)] << "|\n";
    }
    os << "H=header B=backtrack digits/T=data flits  <=ack  D=path-done"
          "  R=release  K=kill  A=msg-ack\n";
    return os.str();
}

} // namespace tpnet
