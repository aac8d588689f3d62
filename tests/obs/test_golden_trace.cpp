/**
 * @file
 * Golden-trace regression suite.
 *
 * Records the four canonical scenarios (fault-free WR, SR K=3, TP with
 * a static fault, TP with a dynamic kill) at a fixed seed and asserts
 * the trace digests match the checked-in goldens — at --jobs 1 and
 * --jobs 8. Any change to event ordering, hook coverage, or the binary
 * serialization shows up here as a digest mismatch.
 *
 * Regenerate after an intentional behavior change with
 * scripts/update_goldens.sh (TPNET_UPDATE_GOLDENS=1 rewrites
 * tests/obs/goldens.txt in place).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/fault_schedule.hpp"
#include "core/network.hpp"
#include "core/run_loop.hpp"
#include "obs/digest.hpp"
#include "obs/recorder.hpp"
#include "traffic/injector.hpp"

namespace tpnet::obs {
namespace {

/** Seed all golden scenarios are recorded at. */
constexpr std::uint64_t goldenSeed = 20260806;

struct GoldenEntry
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
};

std::map<std::string, GoldenEntry>
loadGoldens()
{
    std::map<std::string, GoldenEntry> out;
    std::ifstream is(TPNET_OBS_GOLDENS);
    std::string name;
    std::string digest_hex;
    GoldenEntry e;
    while (is >> name >> digest_hex >> e.events) {
        e.digest = std::stoull(digest_hex, nullptr, 16);
        out[name] = e;
    }
    return out;
}

bool
updateRequested()
{
    const char *env = std::getenv("TPNET_UPDATE_GOLDENS");
    return env && *env && std::string(env) != "0";
}

TEST(GoldenTrace, DigestsMatchGoldensAtJobs1And8)
{
    const std::vector<RecordSpec> specs = goldenSpecs(goldenSeed);
    std::map<std::string, GoldenEntry> goldens = loadGoldens();

    std::ostringstream regen;
    bool mismatch = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string name = goldenSpecName(i);
        SCOPED_TRACE(name);

        const TraceRecorder seq = recordRun(specs[i], 1);
        // recordRun at jobs=8 runs eight concurrent copies and panics
        // on any divergence; its result must also equal the jobs=1 one.
        const TraceRecorder par = recordRun(specs[i], 8);
        EXPECT_EQ(seq.digest(), par.digest());
        EXPECT_EQ(seq.size(), par.size());

        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(seq.digest()));
        regen << name << ' ' << hex << ' ' << seq.size() << '\n';

        const auto it = goldens.find(name);
        if (updateRequested())
            continue;
        ASSERT_NE(it, goldens.end())
            << "no golden for scenario " << name << " in "
            << TPNET_OBS_GOLDENS
            << " — run scripts/update_goldens.sh";
        EXPECT_EQ(seq.digest(), it->second.digest)
            << "trace digest changed for " << name
            << " (events: " << seq.size() << " vs golden "
            << it->second.events
            << "). If intentional, run scripts/update_goldens.sh";
        mismatch |= seq.digest() != it->second.digest;
    }

    if (updateRequested()) {
        std::ofstream os(TPNET_OBS_GOLDENS, std::ios::trunc);
        ASSERT_TRUE(os) << "cannot rewrite " << TPNET_OBS_GOLDENS;
        os << regen.str();
        std::printf("goldens updated: %s\n", TPNET_OBS_GOLDENS);
    } else if (mismatch) {
        std::printf("expected goldens would be:\n%s", regen.str().c_str());
    }
}

TEST(GoldenTrace, DigestTeeAgreesWithTheRecorderBehindIt)
{
    // A campaign's trace digest and the golden trace digest read the
    // same EventSink records: a DigestTee forwarding to a TraceRecorder
    // must fold exactly what the recorder appends, and forwarding must
    // leave the recording equal to a plain recordRun.
    const std::vector<RecordSpec> specs = goldenSpecs(goldenSeed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RecordSpec &spec = specs[i];
        SCOPED_TRACE(goldenSpecName(i));
        Network net(spec.cfg);
        Injector inj(net);
        TraceRecorder rec;
        DigestTee tee(&rec);
        net.attachTrace(&tee);
        chaos::FaultSchedule schedule(spec.faults);
        RunLoop loop(net, inj);
        loop.schedule = &schedule;
        loop.faultRng = &net.rng();
        loop.run(spec.cycles);
        inj.stop();
        loop.run(spec.cycles + spec.drain, false,
                 [&] { return net.quiescent() && !inj.repliesPending(); });
        net.attachTrace(nullptr);

        EXPECT_GT(rec.size(), 0u);
        EXPECT_EQ(tee.digest(), rec.digest());
        EXPECT_EQ(tee.records(), rec.size());
        const TraceRecorder plain = recordRun(spec);
        EXPECT_EQ(rec.digest(), plain.digest());
        EXPECT_EQ(rec.size(), plain.size());
    }
}

TEST(GoldenTrace, RepeatedRecordingIsBitIdentical)
{
    const RecordSpec spec = goldenSpecs(goldenSeed)[1];  // sr-k3
    const TraceRecorder a = recordRun(spec);
    const TraceRecorder b = recordRun(spec);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.digest(), b.digest());

    std::ostringstream fa;
    std::ostringstream fb;
    a.writeBinary(fa, goldenSeed);
    b.writeBinary(fb, goldenSeed);
    EXPECT_EQ(fa.str(), fb.str());
}

TEST(GoldenTrace, SeedChangesDigest)
{
    const RecordSpec base = goldenSpecs(1)[0];
    RecordSpec other = base;
    other.cfg.seed = base.cfg.seed + 1;
    EXPECT_NE(recordRun(base).digest(), recordRun(other).digest());
}

} // namespace
} // namespace tpnet::obs
