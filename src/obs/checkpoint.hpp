/**
 * @file
 * Versioned binary checkpoint container + tail-digest trace tee.
 *
 * A checkpoint file is a 40-byte header followed by an opaque
 * little-endian payload (DESIGN.md §6h):
 *
 *   header:  magic "TPCK" | u16 version | u16 flags
 *            | u64 payload_size | u64 payload_digest
 *            | u64 config_digest | u64 reserved
 *
 * The payload digest is FNV-1a 64 over the payload bytes, so a flipped
 * or truncated byte is rejected before any state is deserialized. The
 * config digest is supplied by the caller (a digest of the campaign
 * spec the snapshot belongs to) and lets restore refuse a checkpoint
 * recorded under a different configuration. The payload itself is
 * written through CkWriter / read back through CkReader — symmetric
 * reference-taking primitives so one field list per type serves both
 * save and load (see src/chaos/snapshot.cpp).
 *
 * DigestTee is an EventSink that folds every event into a running
 * FNV-1a digest using the exact trace_format record encoding (the
 * EventSink mapping TraceRecorder reads too), optionally forwarding
 * to a downstream sink. Resetting it at a checkpoint boundary yields a
 * "tail digest" over the events after the snapshot — the golden value
 * a restore-then-run must reproduce bit-identically.
 */

#ifndef TPNET_OBS_CHECKPOINT_HPP
#define TPNET_OBS_CHECKPOINT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_format.hpp"
#include "sim/types.hpp"

namespace tpnet::obs {

/** Current checkpoint container version. */
constexpr std::uint16_t checkpointFormatVersion = 5;

/** Parsed checkpoint-file header. */
struct CheckpointFileInfo
{
    std::uint16_t version = checkpointFormatVersion;
    std::uint16_t flags = 0;
    std::uint64_t payloadSize = 0;
    std::uint64_t payloadDigest = 0;
    std::uint64_t configDigest = 0;
};

/**
 * Buffered checkpoint payload writer. Primitives take non-const
 * references so the identical io() field list drives both directions;
 * the writer only reads through them.
 */
class CkWriter
{
  public:
    static constexpr bool isReader = false;

    void u8(std::uint8_t &v);
    void u16(std::uint16_t &v);
    void u32(std::uint32_t &v);
    void u64(std::uint64_t &v);
    void i32(std::int32_t &v);
    void i64(std::int64_t &v);
    void f64(double &v);
    void b(bool &v);
    void str(std::string &v);

    std::uint64_t bytes() const { return payload_.size(); }

    /** FNV-1a 64 of the payload written so far. */
    std::uint64_t payloadDigest() const;

    /** Emit header + payload to @p os. */
    void writeTo(std::ostream &os, std::uint64_t config_digest) const;

  private:
    std::vector<std::uint8_t> payload_;
};

/**
 * Checkpoint reader. Construction parses and validates the header,
 * reads the payload, and verifies the payload digest; field reads
 * then mirror CkWriter. Errors (bad magic, version mismatch,
 * truncation, digest mismatch, payload under/overrun) are reported
 * via ok()/error(), never by aborting.
 */
class CkReader
{
  public:
    static constexpr bool isReader = true;

    explicit CkReader(std::istream &is);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const CheckpointFileInfo &info() const { return info_; }

    /** Unread payload bytes (container-size plausibility checks). */
    std::size_t remaining() const { return payload_.size() - pos_; }

    void u8(std::uint8_t &v);
    void u16(std::uint16_t &v);
    void u32(std::uint32_t &v);
    void u64(std::uint64_t &v);
    void i32(std::int32_t &v);
    void i64(std::int64_t &v);
    void f64(double &v);
    void b(bool &v);
    void str(std::string &v);

    /**
     * Declare deserialization complete: any unread payload bytes are
     * an error (state layout drift between writer and reader).
     */
    void finish();

    /**
     * Record a structural failure discovered by the deserializer
     * itself (e.g. a serialized count that contradicts the network
     * geometry). First failure wins; subsequent reads become no-ops.
     */
    void fail(const std::string &why);

  private:
    const std::uint8_t *take(std::size_t n);

    CheckpointFileInfo info_;
    std::vector<std::uint8_t> payload_;
    std::size_t pos_ = 0;
    std::string error_;
};

/** Parse only the header of a checkpoint file (ckinfo subcommand). */
bool readCheckpointInfo(std::istream &is, CheckpointFileInfo *info,
                        std::string *error);

/**
 * EventSink folding every event into a running FNV-1a digest over the
 * trace_format record encoding, optionally forwarding each hook to a
 * downstream sink. reset(cycle) restarts the digest at a checkpoint
 * boundary so digest() covers only the tail after that boundary.
 */
class DigestTee : public EventSink
{
  public:
    explicit DigestTee(TraceSink *downstream = nullptr)
        : EventSink(downstream)
    {
    }

    /** Fold @p ev into the running digest. */
    void onEvent(const TraceEvent &ev) override;

    /** Restart the digest; subsequent events form the tail. */
    void reset(Cycle from);

    std::uint64_t digest() const { return digest_; }
    std::uint64_t records() const { return records_; }

    /** Cycle of the last reset (0 if never reset). */
    Cycle tailFrom() const { return tailFrom_; }

  private:
    std::uint64_t digest_ = 14695981039346656037ull;
    std::uint64_t records_ = 0;
    Cycle tailFrom_ = 0;
};

} // namespace tpnet::obs

#endif // TPNET_OBS_CHECKPOINT_HPP
