#include "obs/trace_format.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/message.hpp"
#include "router/link.hpp"

namespace tpnet::obs {

namespace {

constexpr char traceMagic[4] = {'T', 'P', 'T', 'R'};
constexpr std::size_t traceHeaderSize = 32;

void
putU16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** The fields every flit record shares. */
TraceEvent
flitEvent(TraceEventKind kind, Cycle now, const Flit &flit)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.flitType = static_cast<std::uint8_t>(flit.type);
    ev.cycle = now;
    ev.msg = flit.msg;
    ev.seq = flit.seq;
    ev.hop = flit.hopIdx;
    ev.epoch = flit.epoch;
    return ev;
}

/** A VC allocation or release; node is the link's downstream end. */
TraceEvent
vcEvent(TraceEventKind kind, Cycle now, const Link &link, int vc,
        const Message &msg, int hop_idx)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.vc = static_cast<std::int8_t>(vc);
    ev.link = static_cast<std::uint32_t>(link.id);
    ev.node = static_cast<std::uint32_t>(link.dst);
    ev.cycle = now;
    ev.msg = msg.id;
    ev.hop = hop_idx;
    ev.epoch = msg.epoch;
    return ev;
}

} // namespace

const char *
traceEventKindName(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::FlitCrossed:   return "cross";
      case TraceEventKind::FlitInjected:  return "inject";
      case TraceEventKind::FlitDelivered: return "deliver";
      case TraceEventKind::VcAllocated:   return "vc-alloc";
      case TraceEventKind::VcReleased:    return "vc-release";
      case TraceEventKind::Probe:         return "probe";
      case TraceEventKind::MsgCreated:    return "msg-create";
      case TraceEventKind::MsgTerminal:   return "msg-terminal";
    }
    return "?";
}

std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
encodeTraceEvent(const TraceEvent &ev, std::uint8_t *out)
{
    out[0] = static_cast<std::uint8_t>(ev.kind);
    out[1] = ev.flitType;
    out[2] = ev.detail;
    out[3] = static_cast<std::uint8_t>(ev.vc);
    putU32(out + 4, ev.link);
    putU32(out + 8, ev.node);
    putU64(out + 12, ev.cycle);
    putU64(out + 20, static_cast<std::uint64_t>(ev.msg));
    putU32(out + 28, static_cast<std::uint32_t>(ev.seq));
    putU32(out + 32, static_cast<std::uint32_t>(ev.hop));
    putU32(out + 36, static_cast<std::uint32_t>(ev.epoch));
    putU32(out + 40, ev.aux);
}

std::uint64_t
foldTraceEvent(const TraceEvent &ev, std::uint64_t h)
{
    std::uint8_t rec[traceRecordSize];
    encodeTraceEvent(ev, rec);
    return fnv1a64(rec, sizeof(rec), h);
}

TraceEvent
decodeTraceEvent(const std::uint8_t *in)
{
    TraceEvent ev;
    ev.kind = static_cast<TraceEventKind>(in[0]);
    ev.flitType = in[1];
    ev.detail = in[2];
    ev.vc = static_cast<std::int8_t>(in[3]);
    ev.link = getU32(in + 4);
    ev.node = getU32(in + 8);
    ev.cycle = getU64(in + 12);
    ev.msg = static_cast<std::int64_t>(getU64(in + 20));
    ev.seq = static_cast<std::int32_t>(getU32(in + 28));
    ev.hop = static_cast<std::int32_t>(getU32(in + 32));
    ev.epoch = static_cast<std::int32_t>(getU32(in + 36));
    ev.aux = getU32(in + 40);
    return ev;
}

std::string
traceEventJson(const TraceEvent &ev)
{
    std::ostringstream os;
    os << "{\"t\":" << ev.cycle
       << ",\"kind\":\"" << traceEventKindName(ev.kind) << '"'
       << ",\"msg\":" << ev.msg;
    switch (ev.kind) {
      case TraceEventKind::FlitCrossed:
        os << ",\"flit\":\""
           << flitTypeName(static_cast<FlitType>(ev.flitType)) << '"'
           << ",\"link\":" << static_cast<std::int32_t>(ev.link)
           << ",\"vc\":" << static_cast<int>(ev.vc)
           << ",\"lane\":\"" << (ev.vc < 0 ? "ctrl" : "data") << '"'
           << ",\"seq\":" << ev.seq << ",\"hop\":" << ev.hop
           << ",\"epoch\":" << ev.epoch;
        break;
      case TraceEventKind::FlitInjected:
      case TraceEventKind::FlitDelivered:
        os << ",\"flit\":\""
           << flitTypeName(static_cast<FlitType>(ev.flitType)) << '"'
           << ",\"node\":" << static_cast<std::int32_t>(ev.node)
           << ",\"seq\":" << ev.seq << ",\"hop\":" << ev.hop;
        break;
      case TraceEventKind::VcAllocated:
      case TraceEventKind::VcReleased:
        os << ",\"link\":" << static_cast<std::int32_t>(ev.link)
           << ",\"vc\":" << static_cast<int>(ev.vc)
           << ",\"hop\":" << ev.hop;
        break;
      case TraceEventKind::Probe:
        os << ",\"event\":\""
           << probeEventName(static_cast<ProbeEvent>(ev.detail)) << '"'
           << ",\"hop\":" << ev.hop;
        break;
      case TraceEventKind::MsgCreated:
        os << ",\"src\":" << static_cast<std::int32_t>(ev.node)
           << ",\"dst\":" << static_cast<std::int32_t>(ev.aux)
           << ",\"length\":" << ev.seq;
        break;
      case TraceEventKind::MsgTerminal:
        os << ",\"outcome\":\""
           << msgOutcomeName(static_cast<MsgOutcome>(ev.detail)) << '"';
        break;
    }
    os << '}';
    return os.str();
}

void
EventSink::flitCrossed(Cycle now, const Link &link, int vc,
                       const Flit &flit, bool control_lane)
{
    // The lane is recoverable from the record: vc < 0 on control.
    TraceEvent ev = flitEvent(TraceEventKind::FlitCrossed, now, flit);
    ev.vc = static_cast<std::int8_t>(vc);
    ev.link = static_cast<std::uint32_t>(link.id);
    ev.node = static_cast<std::uint32_t>(link.src);
    onEvent(ev);
    if (next_)
        next_->flitCrossed(now, link, vc, flit, control_lane);
}

void
EventSink::flitInjected(Cycle now, NodeId node, const Flit &flit)
{
    TraceEvent ev = flitEvent(TraceEventKind::FlitInjected, now, flit);
    ev.node = static_cast<std::uint32_t>(node);
    onEvent(ev);
    if (next_)
        next_->flitInjected(now, node, flit);
}

void
EventSink::flitDelivered(Cycle now, NodeId node, const Flit &flit)
{
    TraceEvent ev = flitEvent(TraceEventKind::FlitDelivered, now, flit);
    ev.node = static_cast<std::uint32_t>(node);
    onEvent(ev);
    if (next_)
        next_->flitDelivered(now, node, flit);
}

void
EventSink::vcAllocated(Cycle now, const Link &link, int vc,
                       const Message &msg, int hop_idx)
{
    onEvent(vcEvent(TraceEventKind::VcAllocated, now, link, vc, msg,
                    hop_idx));
    if (next_)
        next_->vcAllocated(now, link, vc, msg, hop_idx);
}

void
EventSink::vcReleased(Cycle now, const Link &link, int vc,
                      const Message &msg, int hop_idx)
{
    onEvent(vcEvent(TraceEventKind::VcReleased, now, link, vc, msg,
                    hop_idx));
    if (next_)
        next_->vcReleased(now, link, vc, msg, hop_idx);
}

void
EventSink::probeEvent(Cycle now, const Message &msg, ProbeEvent event)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::Probe;
    ev.detail = static_cast<std::uint8_t>(event);
    ev.node = static_cast<std::uint32_t>(msg.hdr.cur);
    ev.cycle = now;
    ev.msg = msg.id;
    ev.hop = static_cast<std::int32_t>(msg.path.size()) - 1;
    ev.epoch = msg.epoch;
    onEvent(ev);
    if (next_)
        next_->probeEvent(now, msg, event);
}

void
EventSink::messageCreated(Cycle now, const Message &msg)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::MsgCreated;
    ev.node = static_cast<std::uint32_t>(msg.src);
    ev.aux = static_cast<std::uint32_t>(msg.dst);
    ev.cycle = now;
    ev.msg = msg.id;
    ev.seq = msg.length;
    onEvent(ev);
    if (next_)
        next_->messageCreated(now, msg);
}

void
EventSink::messageTerminal(Cycle now, const Message &msg,
                           MsgOutcome outcome)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::MsgTerminal;
    ev.detail = static_cast<std::uint8_t>(outcome);
    ev.node = static_cast<std::uint32_t>(msg.src);
    ev.aux = static_cast<std::uint32_t>(msg.dst);
    ev.cycle = now;
    ev.msg = msg.id;
    onEvent(ev);
    if (next_)
        next_->messageTerminal(now, msg, outcome);
}

TraceWriter::TraceWriter(std::ostream &os, std::uint64_t seed)
    : os_(os)
{
    std::uint8_t hdr[traceHeaderSize] = {};
    std::memcpy(hdr, traceMagic, 4);
    putU16(hdr + 4, traceFormatVersion);
    putU16(hdr + 6, 0);
    putU32(hdr + 8, traceRecordSize);
    putU32(hdr + 12, 0);
    putU64(hdr + 16, seed);
    putU64(hdr + 24, 0);
    os_.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
}

void
TraceWriter::write(const TraceEvent &ev)
{
    std::uint8_t rec[traceRecordSize];
    encodeTraceEvent(ev, rec);
    os_.write(reinterpret_cast<const char *>(rec), sizeof(rec));
    digest_ = fnv1a64(rec, sizeof(rec), digest_);
    ++records_;
}

TraceReader::TraceReader(std::istream &is)
    : is_(is)
{
    std::uint8_t hdr[traceHeaderSize];
    is_.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (is_.gcount() != static_cast<std::streamsize>(sizeof(hdr))) {
        error_ = "truncated trace header";
        return;
    }
    if (std::memcmp(hdr, traceMagic, 4) != 0) {
        error_ = "not a tpnet trace (bad magic)";
        return;
    }
    info_.version = getU16(hdr + 4);
    info_.flags = getU16(hdr + 6);
    info_.recordSize = getU32(hdr + 8);
    info_.seed = getU64(hdr + 16);
    if (info_.version != traceFormatVersion) {
        std::ostringstream os;
        os << "unsupported trace version " << info_.version
           << " (reader supports " << traceFormatVersion << ")";
        error_ = os.str();
        return;
    }
    if (info_.recordSize != traceRecordSize) {
        std::ostringstream os;
        os << "unexpected record size " << info_.recordSize
           << " (expected " << traceRecordSize << ")";
        error_ = os.str();
    }
}

bool
TraceReader::next(TraceEvent *ev)
{
    if (!ok())
        return false;
    std::uint8_t rec[traceRecordSize];
    is_.read(reinterpret_cast<char *>(rec), sizeof(rec));
    const auto got = is_.gcount();
    if (got == 0)
        return false;  // clean EOF
    if (got != static_cast<std::streamsize>(sizeof(rec))) {
        std::ostringstream os;
        os << "truncated record " << records_ << " (" << got << " of "
           << sizeof(rec) << " bytes)";
        error_ = os.str();
        return false;
    }
    *ev = decodeTraceEvent(rec);
    digest_ = fnv1a64(rec, sizeof(rec), digest_);
    ++records_;
    return true;
}

} // namespace tpnet::obs
