#include "chaos/fault_schedule.hpp"

#include <algorithm>
#include <string_view>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "sim/options.hpp"

namespace tpnet {
namespace chaos {

void
FaultSchedule::add(const FaultEvent &ev)
{
    events_.push_back(ev);
    sorted_ = false;
}

FaultSchedule
FaultSchedule::randomized(const ScheduleSpec &spec, Rng &rng)
{
    FaultSchedule sched;
    auto fireTime = [&spec, &rng]() {
        return spec.earliest >= spec.horizon
                   ? spec.earliest
                   : rng.between(spec.earliest, spec.horizon - 1);
    };
    for (int i = 0; i < spec.nodeKills; ++i)
        sched.add({fireTime(), FaultKind::NodeKill, invalidNode, -1, 0});
    for (int i = 0; i < spec.linkKills; ++i)
        sched.add({fireTime(), FaultKind::LinkKill, invalidNode, -1, 0});
    for (int i = 0; i < spec.intermittents; ++i) {
        sched.add({fireTime(), FaultKind::LinkIntermittent, invalidNode,
                   -1, rng.between(spec.downMin, spec.downMax)});
    }
    return sched;
}

void
FaultSchedule::apply(Network &net, Rng &rng)
{
    while (nextEventAt() <= net.now()) {
        if (const auto hit = net.strike(events_[next_], rng)) {
            firedEvents_.push_back(*hit);
            ++fired_;
        } else {
            ++skipped_;
        }
        ++next_;
    }
}

Cycle
FaultSchedule::nextEventAt()
{
    if (!sorted_) {
        std::stable_sort(events_.begin() + static_cast<std::ptrdiff_t>(next_),
                         events_.end(),
                         [](const FaultEvent &a, const FaultEvent &b) {
                             return a.at < b.at;
                         });
        sorted_ = true;
    }
    return next_ < events_.size() ? events_[next_].at : cycleNever;
}

namespace {

/** Replay-spec letter of each FaultKind, in enum order. */
constexpr std::string_view kindLetters = "nli";

/** Split @p s at every @p sep (an empty string is one empty field). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (std::size_t end; (end = s.find(sep, pos)) != std::string::npos;
         pos = end + 1) {
        out.push_back(s.substr(pos, end - pos));
    }
    out.push_back(s.substr(pos));
    return out;
}

} // namespace

std::string
formatFaultEvents(const std::vector<FaultEvent> &events)
{
    std::string out;
    for (const FaultEvent &ev : events) {
        if (!out.empty())
            out += ',';
        out += std::to_string(ev.at) + ':' +
               kindLetters[static_cast<std::size_t>(ev.kind)] + ':' +
               std::to_string(ev.node) + ':' + std::to_string(ev.port) +
               ':' + std::to_string(ev.downFor);
    }
    return out;
}

bool
parseFaultEvents(const std::string &spec, std::vector<FaultEvent> *out)
{
    out->clear();
    if (spec.empty())
        return true;
    for (const std::string &tok : split(spec, ',')) {
        // Five colon-separated fields: at:kind:node:port:down.
        const std::vector<std::string> fields = split(tok, ':');
        if (fields.size() != 5 || fields[1].size() != 1)
            return false;
        const std::size_t kind = kindLetters.find(fields[1][0]);
        if (kind == std::string_view::npos)
            return false;
        FaultEvent ev;
        ev.kind = static_cast<FaultKind>(kind);
        // Node -1 is an open victim, drawn when the event fires; port
        // -1 is a node kill's (or an open victim's) port.
        if (!parseNumber(fields[0], &ev.at) ||
            !parseNumber(fields[2], &ev.node) || ev.node < invalidNode ||
            !parseNumber(fields[3], &ev.port) || ev.port < -1 ||
            !parseNumber(fields[4], &ev.downFor))
            return false;
        out->push_back(ev);
    }
    return true;
}

} // namespace chaos
} // namespace tpnet
