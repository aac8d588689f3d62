/**
 * @file
 * Differential bit-identity wall for the topology layer.
 *
 * Two invariances, each checked for every registered topology:
 *  - the event-driven engine is observationally equal to the
 *    time-stepped engine (byte-identical traces), exactly as the
 *    legacy torus wall pins in test_engine_differential.cpp;
 *  - parallel sweeps are --jobs invariant (bit-identical results).
 *
 * Legacy torus/mesh behavior itself is pinned by the golden-trace wall
 * (tests/obs/goldens.txt) and the fig12 perf baseline, which this
 * refactor must not move.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "topology/registry.hpp"

namespace tpnet {
namespace {

/** A loaded, deterministic run of each family's wall instance. */
SimConfig
loadedConfig(TopologyKind kind)
{
    SimConfig cfg = topologyEntry(kind).wallConfig();
    cfg.protocol = Protocol::TwoPhase;
    cfg.load = 0.12;
    cfg.msgLength = 8;
    cfg.warmup = 100;
    cfg.measure = 600;
    cfg.drain = 20000;
    cfg.watchdog = 0;
    cfg.seed = 777001;
    return cfg;
}

class TopologyDifferential
    : public ::testing::TestWithParam<TopologyKind>
{};

std::string
diffName(const ::testing::TestParamInfo<TopologyKind> &info)
{
    return topologyEntry(info.param).name;
}

TEST_P(TopologyDifferential, EngineOnOffTracesAreByteIdentical)
{
    obs::RecordSpec spec;
    spec.cfg = loadedConfig(GetParam());
    spec.cycles = 400;

    spec.cfg.eventEngine = true;
    const obs::TraceRecorder on = obs::recordRun(spec);
    spec.cfg.eventEngine = false;
    const obs::TraceRecorder off = obs::recordRun(spec);

    EXPECT_EQ(on.digest(), off.digest());
    ASSERT_EQ(on.size(), off.size());
    std::ostringstream fa(std::ios::binary);
    std::ostringstream fb(std::ios::binary);
    on.writeBinary(fa, spec.cfg.seed);
    off.writeBinary(fb, spec.cfg.seed);
    EXPECT_EQ(fa.str(), fb.str());
    // A trace with no traffic would make the comparison vacuous.
    EXPECT_GT(on.size(), 0u);
}

TEST_P(TopologyDifferential, ReplicatedRunIsJobsInvariant)
{
    const SimConfig cfg = loadedConfig(GetParam());
    SweepOptions seq;
    seq.minReps = 2;
    seq.maxReps = 3;
    seq.jobs = 1;
    SweepOptions par = seq;
    par.jobs = 4;

    const ReplicatedResult a = runReplicated(cfg, seq);
    const ReplicatedResult b = runReplicated(cfg, par);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.mean.throughput, b.mean.throughput);
    EXPECT_EQ(a.mean.avgLatency, b.mean.avgLatency);
    EXPECT_EQ(a.mean.p95Latency, b.mean.p95Latency);
    EXPECT_EQ(a.mean.counters.delivered, b.mean.counters.delivered);
    EXPECT_EQ(a.mean.counters.dataCrossings,
              b.mean.counters.dataCrossings);
    EXPECT_GT(a.mean.counters.delivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Registry, TopologyDifferential,
                         ::testing::ValuesIn([] {
                             std::vector<TopologyKind> kinds;
                             for (const TopologyEntry &e :
                                  topologyRegistry())
                                 kinds.push_back(e.kind);
                             return kinds;
                         }()),
                         diffName);

} // namespace
} // namespace tpnet
