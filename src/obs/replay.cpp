#include "obs/replay.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace tpnet::obs {

namespace {

/** Messages whose setup ever retreated, detoured, or re-tried. */
std::unordered_set<MsgId>
irregularMessages(const std::vector<TraceEvent> &events)
{
    std::unordered_set<MsgId> out;
    for (const TraceEvent &ev : events) {
        if (ev.epoch > 0) {
            out.insert(ev.msg);
            continue;
        }
        if (ev.kind == TraceEventKind::Probe) {
            const auto pe = static_cast<ProbeEvent>(ev.detail);
            if (pe == ProbeEvent::Backtracked ||
                pe == ProbeEvent::EnteredDetour ||
                pe == ProbeEvent::Aborted) {
                out.insert(ev.msg);
            }
        } else if (ev.kind == TraceEventKind::FlitCrossed &&
                   static_cast<FlitType>(ev.flitType) == FlitType::AckNeg) {
            out.insert(ev.msg);
        }
    }
    return out;
}

} // namespace

TimeSpaceTrace
replayTimeSpace(const std::vector<TraceEvent> &events, MsgId target)
{
    if (target == invalidMsg) {
        for (const TraceEvent &ev : events) {
            if (ev.kind == TraceEventKind::MsgTerminal &&
                static_cast<MsgOutcome>(ev.detail) == MsgOutcome::Delivered) {
                target = ev.msg;
                break;
            }
        }
    }
    if (target == invalidMsg) {
        for (const TraceEvent &ev : events) {
            if (ev.kind == TraceEventKind::MsgCreated) {
                target = ev.msg;
                break;
            }
        }
    }

    TimeSpaceTrace ts(target);
    for (const TraceEvent &ev : events)
        ts.onEvent(ev);
    return ts;
}

CheckResult
checkScoutGap(const std::vector<TraceEvent> &events, int scout_k)
{
    CheckResult res;

    // The K-ack bound only holds verbatim for monotone setups: negative
    // acknowledgments roll counters back and retries restart the path,
    // so those messages are exempt (they are checked by checkVcBalance
    // instead).
    const std::unordered_set<MsgId> exempt = irregularMessages(events);

    struct MsgTrack
    {
        std::int32_t frontier = -1;  ///< furthest hop the header crossed
        bool ejected = false;        ///< PathDone opened residual gates
    };
    std::unordered_map<MsgId, MsgTrack> track;

    for (const TraceEvent &ev : events) {
        if (exempt.count(ev.msg))
            continue;
        if (ev.kind == TraceEventKind::Probe) {
            if (static_cast<ProbeEvent>(ev.detail) == ProbeEvent::Ejected)
                track[ev.msg].ejected = true;
            continue;
        }
        if (ev.kind != TraceEventKind::FlitCrossed)
            continue;

        const auto type = static_cast<FlitType>(ev.flitType);
        if (type == FlitType::Header) {
            MsgTrack &t = track[ev.msg];
            t.frontier = std::max(t.frontier, ev.hop);
            continue;
        }
        if (type != FlitType::Data && type != FlitType::Tail)
            continue;

        // A data flit crossing hop h left the gate of channel h-1, which
        // requires K positive acks there: header frontier >= h + K - 1,
        // unless the probe already ejected (destination acknowledgment
        // opens every remaining gate on paths shorter than K).
        const MsgTrack &t = track[ev.msg];
        ++res.checked;
        if (!t.ejected && t.frontier < ev.hop + scout_k - 1) {
            std::ostringstream os;
            os << "scout-gap violation: msg " << ev.msg << " data flit seq "
               << ev.seq << " crossed hop " << ev.hop << " at cycle "
               << ev.cycle << " with header frontier " << t.frontier
               << " < " << (ev.hop + scout_k - 1) << " (K=" << scout_k
               << ")";
            res.ok = false;
            res.error = os.str();
            return res;
        }
    }
    return res;
}

CheckResult
checkVcBalance(const std::vector<TraceEvent> &events, bool require_drained)
{
    CheckResult res;
    struct Key
    {
        std::uint32_t link;
        std::int8_t vc;
        bool operator==(const Key &o) const
        {
            return link == o.link && vc == o.vc;
        }
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            return k.link * 31u + static_cast<std::size_t>(k.vc + 1);
        }
    };
    std::unordered_map<Key, MsgId, KeyHash> owner;

    for (const TraceEvent &ev : events) {
        if (ev.kind == TraceEventKind::VcAllocated) {
            ++res.checked;
            const auto [it, fresh] =
                owner.emplace(Key{ev.link, ev.vc}, ev.msg);
            if (!fresh) {
                std::ostringstream os;
                os << "double allocation: link " << ev.link << " vc "
                   << static_cast<int>(ev.vc) << " allocated to msg "
                   << ev.msg << " at cycle " << ev.cycle
                   << " while held by msg " << it->second;
                res.ok = false;
                res.error = os.str();
                return res;
            }
        } else if (ev.kind == TraceEventKind::VcReleased) {
            ++res.checked;
            auto it = owner.find(Key{ev.link, ev.vc});
            if (it == owner.end() || it->second != ev.msg) {
                std::ostringstream os;
                os << "unmatched release: link " << ev.link << " vc "
                   << static_cast<int>(ev.vc) << " released by msg "
                   << ev.msg << " at cycle " << ev.cycle
                   << (it == owner.end() ? " (never allocated)"
                                         : " (held by another message)");
                res.ok = false;
                res.error = os.str();
                return res;
            }
            owner.erase(it);
        }
    }

    if (require_drained && !owner.empty()) {
        std::ostringstream os;
        const auto &[key, msg] = *owner.begin();
        os << owner.size() << " allocation(s) never released; first: link "
           << key.link << " vc " << static_cast<int>(key.vc) << " msg "
           << msg;
        res.ok = false;
        res.error = os.str();
    }
    return res;
}

CheckResult
readAll(TraceReader &reader, std::vector<TraceEvent> *out)
{
    CheckResult res;
    TraceEvent ev;
    while (reader.next(&ev)) {
        out->push_back(ev);
        ++res.checked;
    }
    if (!reader.ok()) {
        res.ok = false;
        res.error = reader.error();
    }
    return res;
}

} // namespace tpnet::obs
