/**
 * @file
 * Versioned binary trace format and streaming reader/writer.
 *
 * A trace file is a 32-byte header followed by fixed-size little-endian
 * event records (DESIGN.md §6e):
 *
 *   header:  magic "TPTR" | u16 version | u16 flags | u32 record_size
 *            | u32 reserved | u64 seed | u64 reserved
 *   record:  u8 kind | u8 flit_type | u8 detail | i8 vc
 *            | u32 link | u32 node | u64 cycle | u64 msg
 *            | i32 seq | i32 hop | i32 epoch | u32 aux     (44 bytes)
 *
 * The 64-bit trace digest is FNV-1a over the serialized record bytes
 * (the header is excluded, so the digest depends only on the event
 * sequence, not on how the run was labelled). Serialization is explicit
 * byte-at-a-time little-endian, so files and digests are identical
 * across platforms and standard libraries — that is what lets the
 * golden-trace suite check in digests.
 */

#ifndef TPNET_OBS_TRACE_FORMAT_HPP
#define TPNET_OBS_TRACE_FORMAT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>

#include "router/flit.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tpnet::obs {

/** What a trace record describes. */
enum class TraceEventKind : std::uint8_t {
    FlitCrossed = 0,   ///< flit crossed a link (vc < 0: control lane)
    FlitInjected = 1,  ///< flit entered the network at its source PE
    FlitDelivered = 2, ///< flit ejected at the destination PE
    VcAllocated = 3,   ///< probe reserved a VC trio (detail unused)
    VcReleased = 4,    ///< a path hop released its VC trio
    Probe = 5,         ///< probe event; detail is a ProbeEvent
    MsgCreated = 6,    ///< message accepted; node=src, aux=dst, seq=length
    MsgTerminal = 7,   ///< message retired; detail is a MsgOutcome
};

/** Short name for a record kind (dump mode, tests). */
const char *traceEventKindName(TraceEventKind k);

/** One fixed-size trace record (all kinds share the same layout). */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::FlitCrossed;
    std::uint8_t flitType = 0xff; ///< FlitType, or 0xff when not a flit
    std::uint8_t detail = 0xff;   ///< ProbeEvent / MsgOutcome, else 0xff
    std::int8_t vc = -1;          ///< VC index; -1 on the control lane
    std::uint32_t link = 0xffffffffu; ///< LinkId, or ~0 when not on a link
    std::uint32_t node = 0xffffffffu; ///< NodeId, or ~0
    Cycle cycle = 0;
    std::int64_t msg = invalidMsg;
    std::int32_t seq = 0;
    std::int32_t hop = 0;
    std::int32_t epoch = 0;
    std::uint32_t aux = 0;
};

/** Serialized record size in bytes. */
constexpr std::uint32_t traceRecordSize = 44;

/** Current format version. */
constexpr std::uint16_t traceFormatVersion = 1;

/** FNV-1a 64 over @p n bytes, continuing from @p h. */
std::uint64_t fnv1a64(const void *data, std::size_t n,
                      std::uint64_t h = 14695981039346656037ull);

/** Serialize @p ev into @p out (traceRecordSize bytes, little-endian). */
void encodeTraceEvent(const TraceEvent &ev, std::uint8_t *out);

/** Fold the serialized bytes of @p ev into the FNV-1a digest @p h. */
std::uint64_t foldTraceEvent(const TraceEvent &ev, std::uint64_t h);

/** Inverse of encodeTraceEvent. */
TraceEvent decodeTraceEvent(const std::uint8_t *in);

/** One JSON object (single line, no trailing newline) for JSONL dumps. */
std::string traceEventJson(const TraceEvent &ev);

/**
 * The one hook-to-record mapping. Each TraceSink hook builds the
 * TraceEvent it stands for, hands it to onEvent(), then forwards the
 * raw hook to the optional next sink. Recorders, digests and the
 * time-space diagram read events only through onEvent(), so a live
 * run and a replayed file feed them the same records.
 */
class EventSink : public TraceSink
{
  public:
    explicit EventSink(TraceSink *next = nullptr) : next_(next) {}

    /** One event, live or replayed. */
    virtual void onEvent(const TraceEvent &ev) = 0;

    void flitCrossed(Cycle now, const Link &link, int vc, const Flit &flit,
                     bool control_lane) final;
    void flitInjected(Cycle now, NodeId node, const Flit &flit) final;
    void flitDelivered(Cycle now, NodeId node, const Flit &flit) final;
    void vcAllocated(Cycle now, const Link &link, int vc,
                     const Message &msg, int hop_idx) final;
    void vcReleased(Cycle now, const Link &link, int vc,
                    const Message &msg, int hop_idx) final;
    void probeEvent(Cycle now, const Message &msg,
                    ProbeEvent event) final;
    void messageCreated(Cycle now, const Message &msg) final;
    void messageTerminal(Cycle now, const Message &msg,
                         MsgOutcome outcome) final;

  private:
    TraceSink *next_ = nullptr;
};

/** Parsed trace-file header. */
struct TraceFileInfo
{
    std::uint16_t version = traceFormatVersion;
    std::uint16_t flags = 0;
    std::uint32_t recordSize = traceRecordSize;
    std::uint64_t seed = 0;
};

/** Streaming binary trace writer. Writes the header on construction. */
class TraceWriter
{
  public:
    TraceWriter(std::ostream &os, std::uint64_t seed);

    /** Append one record (serialize + fold into the running digest). */
    void write(const TraceEvent &ev);

    std::uint64_t records() const { return records_; }

    /** Running FNV-1a digest of the records written so far. */
    std::uint64_t digest() const { return digest_; }

  private:
    std::ostream &os_;
    std::uint64_t records_ = 0;
    std::uint64_t digest_ = 14695981039346656037ull;
};

/**
 * Streaming binary trace reader. Construction parses and validates the
 * header; next() yields records until clean EOF or a framing error.
 * Errors (bad magic, version/record-size mismatch, truncated record)
 * are reported via ok()/error(), never by aborting — the CLI and the
 * round-trip tests both exercise these paths.
 */
class TraceReader
{
  public:
    explicit TraceReader(std::istream &is);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const TraceFileInfo &info() const { return info_; }

    /**
     * Read the next record. @return false at end of input; check ok()
     * to distinguish clean EOF from a truncated/corrupt file.
     */
    bool next(TraceEvent *ev);

    std::uint64_t records() const { return records_; }

    /** Running FNV-1a digest of the records read so far. */
    std::uint64_t digest() const { return digest_; }

  private:
    std::istream &is_;
    TraceFileInfo info_;
    std::string error_;
    std::uint64_t records_ = 0;
    std::uint64_t digest_ = 14695981039346656037ull;
};

} // namespace tpnet::obs

#endif // TPNET_OBS_TRACE_FORMAT_HPP
