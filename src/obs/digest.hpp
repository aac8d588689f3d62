/**
 * @file
 * Write-only run digests: a streaming state hasher and a trace digest
 * tee.
 *
 * StateHasher folds little-endian fields into a running FNV-1a 64
 * digest, one byte at a time, with no buffer. The harness field lists
 * in src/chaos/snapshot.cpp drive it, so two runs that end in the same
 * dynamic state hash alike, and a field that differs moves the digest
 * short of an FNV-1a collision (DESIGN.md §6h).
 *
 * DigestTee is an EventSink that folds every event into a running
 * FNV-1a digest using the exact trace_format record encoding (the
 * EventSink mapping TraceRecorder reads too), optionally forwarding
 * to a downstream sink.
 */

#ifndef TPNET_OBS_DIGEST_HPP
#define TPNET_OBS_DIGEST_HPP

#include <cstdint>
#include <string>

#include "obs/trace_format.hpp"

namespace tpnet::obs {

/** FNV-1a 64 over the little-endian bytes of the fields it is fed. */
class StateHasher
{
  public:
    void u8(std::uint8_t v) { fold(v, 1); }
    void u32(std::uint32_t v) { fold(v, 4); }
    void u64(std::uint64_t v) { fold(v, 8); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** The bit pattern, so equal digests mean bit-equal doubles. */
    void f64(double v);
    /** The length, then the bytes. */
    void str(const std::string &v);

    std::uint64_t digest() const { return digest_; }

  private:
    void
    fold(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            digest_ ^= (v >> (8 * i)) & 0xff;
            digest_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t digest_ = 14695981039346656037ull;
};

/**
 * EventSink folding every event into a running FNV-1a digest over the
 * trace_format record encoding, optionally forwarding each hook to a
 * downstream sink.
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

    std::uint64_t digest() const { return digest_; }
    std::uint64_t records() const { return records_; }

  private:
    std::uint64_t digest_ = 14695981039346656037ull;
    std::uint64_t records_ = 0;
};

} // namespace tpnet::obs

#endif // TPNET_OBS_DIGEST_HPP
