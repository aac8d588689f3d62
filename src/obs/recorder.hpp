/**
 * @file
 * TraceRecorder — a TraceSink capturing every simulation event into
 * trace_format records, plus the seeded record-run driver behind the
 * `tpnet_trace record` CLI and the golden-trace regression suite.
 *
 * recordRun() can execute the same scenario on several worker threads
 * at once (`--jobs N`), each worker with its own Network + recorder,
 * and verifies that all copies produced bit-identical digests — the
 * trace-level analogue of the sweep engine's jobs-invariance guarantee.
 */

#ifndef TPNET_OBS_RECORDER_HPP
#define TPNET_OBS_RECORDER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "obs/trace_format.hpp"
#include "sim/config.hpp"

namespace tpnet::obs {

/** Records every trace hook into an in-memory event sequence. */
class TraceRecorder : public EventSink
{
  public:
    /** Append @p ev and fold it into the digest. */
    void onEvent(const TraceEvent &ev) override;

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }

    /**
     * FNV-1a digest over the serialized record bytes, maintained as
     * events arrive — identical to the digest of the written file.
     */
    std::uint64_t digest() const { return digest_; }

    /** Write the binary trace (header seeded with @p seed). */
    void writeBinary(std::ostream &os, std::uint64_t seed) const;

    /** Write one JSON object per event (JSONL text mode). */
    void writeJsonl(std::ostream &os) const;

    void clear();

  private:
    std::vector<TraceEvent> events_;
    std::uint64_t digest_ = 14695981039346656037ull;
};

/** One recordable scenario: a configuration plus a cycle budget. */
struct RecordSpec
{
    SimConfig cfg;
    /** Injection window; after it, the run drains to quiescence. */
    Cycle cycles = 300;
    /** Extra cycles allowed for the drain before giving up. */
    Cycle drain = 20000;
    /** Dynamic faults, struck at the start of their cycle, before
     *  that cycle's injection (open victims draw the network's RNG). */
    std::vector<FaultEvent> faults;
};

/**
 * The canonical golden scenarios, in fixed order: fault-free WR (DP),
 * SR with K=3, TP with a static link fault, and TP with a dynamic
 * node kill mid-run. @p seed perturbs all of them identically.
 */
std::vector<RecordSpec> goldenSpecs(std::uint64_t seed);

/** Name of goldenSpecs()[i] ("wr-faultfree", "sr-k3", ...). */
const char *goldenSpecName(std::size_t i);

/**
 * Run @p spec with a recorder attached: inject Injector traffic for
 * spec.cycles, then drain until quiescent (bounded by spec.drain).
 * With @p jobs > 1 the identical scenario runs on that many workers
 * concurrently and the digests are asserted equal before returning
 * worker 0's recording (dies loudly on a mismatch).
 */
TraceRecorder recordRun(const RecordSpec &spec, std::size_t jobs = 1);

} // namespace tpnet::obs

#endif // TPNET_OBS_RECORDER_HPP
