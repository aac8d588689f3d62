/**
 * @file
 * Differential conformance wall for the event-driven engine.
 *
 * The activity-scheduled engine (ISSUE 8) is a pure optimization: it
 * must be observationally *equal* to the time-stepped engine, bit for
 * bit. This suite drives every golden-trace scenario and a hand-built
 * knot-recovery campaign through both engines and asserts byte
 * identity of the traces, the CWG verdicts, and the recovery report —
 * including checkpoint digests, where the skip path must reproduce the
 * serialized watchdog/tracker bookkeeping of every skipped cycle.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/network.hpp"
#include "core/simulator.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_format.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

namespace fs = std::filesystem;

/** Seed the golden scenarios are recorded at (tests/obs/goldens.txt). */
constexpr std::uint64_t goldenSeed = 20260806;

TEST(EngineDifferential, GoldenScenarioTracesAreByteIdentical)
{
    // Every scenario of the golden wall, once per engine. Comparing
    // the serialized files (not just digests) rules out even a
    // hash-collision-shaped escape.
    std::vector<obs::RecordSpec> specs = obs::goldenSpecs(goldenSeed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(obs::goldenSpecName(i));
        obs::RecordSpec spec = specs[i];

        spec.cfg.eventEngine = true;
        const obs::TraceRecorder on = obs::recordRun(spec);
        spec.cfg.eventEngine = false;
        const obs::TraceRecorder off = obs::recordRun(spec);

        EXPECT_EQ(on.digest(), off.digest());
        ASSERT_EQ(on.size(), off.size());
        std::ostringstream fa(std::ios::binary);
        std::ostringstream fb(std::ios::binary);
        on.writeBinary(fa, goldenSeed);
        off.writeBinary(fb, goldenSeed);
        EXPECT_EQ(fa.str(), fb.str());
    }
}

/**
 * A recovery-mode fault campaign: TP at a solid load with randomized
 * node/link kills and a long post-injection drain. Recovery mode arms
 * the CWG knot detector and the victim-abort healer, so the run
 * exercises every subsystem the event engine touches — probes, data,
 * teardown walks, retries, heals, sweeps, and drain-phase idle
 * skipping — under one roof. (The protocols are deadlock-free by
 * design, so organic knots are vanishingly rare; the hand-built knot
 * test below covers the heal path itself.)
 */
chaos::CampaignSpec
knotRecoverySpec()
{
    chaos::CampaignSpec spec;
    spec.cfg.protocol = Protocol::TwoPhase;
    spec.cfg.k = 8;
    spec.cfg.n = 2;
    spec.cfg.load = 0.20;
    spec.cfg.maxRetries = 6;
    spec.cfg.recoveryMode = true;
    spec.cfg.victimPolicy = VictimPolicy::RandomSeeded;
    spec.seed = 7;
    spec.injectCycles = 3000;
    spec.drainCycles = 100000;
    spec.verifyCwg = true;
    chaos::ScheduleSpec &f = spec.faults;
    f.horizon = 3000;
    f.earliest = 100;
    f.nodeKills = 2;
    f.linkKills = 2;
    f.intermittents = 2;
    f.downMin = 200;
    f.downMax = 1500;
    return spec;
}

TEST(EngineDifferential, RecoveryCampaignReportsAreByteIdentical)
{
    chaos::CampaignSpec spec = knotRecoverySpec();

    spec.cfg.eventEngine = true;
    const chaos::CampaignResult on = chaos::runCampaign(spec);
    spec.cfg.eventEngine = false;
    const chaos::CampaignResult off = chaos::runCampaign(spec);

    // The recovery JSON embeds CWG verdict counts, every violation
    // line (with its cycle number), and the heal log.
    EXPECT_EQ(chaos::campaignJson(on), chaos::campaignJson(off));

    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.quiescent, off.quiescent);
    EXPECT_EQ(on.cwgCycles, off.cwgCycles);
    EXPECT_EQ(on.cwgBenign, off.cwgBenign);
    EXPECT_EQ(on.cwgViolations, off.cwgViolations);
    EXPECT_EQ(on.cwgWarnings, off.cwgWarnings);
    EXPECT_EQ(on.healEvents, off.healEvents);
    EXPECT_EQ(chaos::formatFaultEvents(on.firedEvents),
              chaos::formatFaultEvents(off.firedEvents));
    EXPECT_EQ(on.counters.delivered, off.counters.delivered);
    EXPECT_EQ(on.counters.knotsDetected, off.counters.knotsDetected);
    EXPECT_EQ(on.counters.victimsAborted, off.counters.victimsAborted);
    EXPECT_EQ(on.counters.healRetransmits,
              off.counters.healRetransmits);

    // The campaign must actually have rerouted around faults, or this
    // test proves little about recovery under the event engine.
    EXPECT_GT(on.counters.delivered, 0u);
    EXPECT_GT(on.firedEvents.size(), 0u);
}

/** Observable outcome of one hand-built-knot recovery run. */
struct KnotRun
{
    std::uint64_t digest = 0;
    std::size_t events = 0;
    std::uint64_t knots = 0;
    std::uint64_t victims = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t delivered = 0;
    std::size_t heals = 0;
    MsgId victim = invalidMsg;
    std::size_t violations = 0;
};

/**
 * Hand-build the canonical 4-ring knot through the live network's own
 * tracker (the RecoveryTest idiom from tests/verify/test_recovery.cpp):
 * msg i waits on a trio owned by msg i+1, no member has an exit. The
 * knot heals via victim abort and source retransmission — control
 * walkers, retry backoff, and the heal log all run under whichever
 * engine is configured.
 */
KnotRun
runHandBuiltKnot(bool event_engine)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.recoveryMode = true;
    cfg.maxHealAttempts = 8;
    cfg.watchdog = 0;  // collect violations instead of panicking
    cfg.eventEngine = event_engine;
    Network net(cfg);
    obs::TraceRecorder rec;
    net.attachTrace(&rec);
    for (NodeId s = 0; s < 5; ++s)
        net.offerMessage(s, s + 9);

    const int avc = net.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        net.vc(net.linkAt(static_cast<NodeId>(i), 0).id, avc)
            .reserve((i + 1) % 4, 0, false);
    for (MsgId i = 0; i < 4; ++i) {
        Message &msg = net.message(i);
        net.cwg()->beginEvaluation(msg);
        net.cwg()->noteCandidate(static_cast<NodeId>(i), 0, avc);
        net.cwg()->onBlocked(msg);
    }

    // One step consumes the pending knot; the rest runs the abort
    // walk, the backoff, the retransmission, and whatever routing the
    // survivors manage around the hand-held reservations.
    for (Cycle c = 0; c < 3000; ++c)
        net.step();
    net.attachTrace(nullptr);

    KnotRun out;
    out.digest = rec.digest();
    out.events = rec.size();
    out.knots = net.counters().knotsDetected;
    out.victims = net.counters().victimsAborted;
    out.retransmits = net.counters().healRetransmits;
    out.delivered = net.counters().delivered;
    out.heals = net.healLog().size();
    if (!net.healLog().empty())
        out.victim = net.healLog().front().victim;
    out.violations = net.cwg()->violations().size();
    return out;
}

TEST(EngineDifferential, HandBuiltKnotHealsIdenticallyUnderBothEngines)
{
    KnotRun on;
    KnotRun off;
    {
        SCOPED_TRACE("event engine");
        on = runHandBuiltKnot(true);
    }
    {
        SCOPED_TRACE("time stepped");
        off = runHandBuiltKnot(false);
    }

    // The heal must actually have happened, under both engines, and
    // every externally visible consequence must be bit-identical.
    EXPECT_EQ(on.knots, 1u);
    EXPECT_EQ(on.victims, 1u);
    EXPECT_GE(on.retransmits, 1u);
    EXPECT_EQ(on.violations, 0u);

    EXPECT_EQ(on.digest, off.digest);
    EXPECT_EQ(on.events, off.events);
    EXPECT_EQ(on.knots, off.knots);
    EXPECT_EQ(on.victims, off.victims);
    EXPECT_EQ(on.retransmits, off.retransmits);
    EXPECT_EQ(on.delivered, off.delivered);
    EXPECT_EQ(on.heals, off.heals);
    EXPECT_EQ(on.victim, off.victim);
}

TEST(EngineDifferential, CheckpointDigestsAreEngineInvariant)
{
    // Checkpoints serialize the full harness state — network, RNGs,
    // watchdog bookkeeping, CWG tracker. The skip fast path replays
    // that bookkeeping for the cycles it never executes, so the state
    // digest and tail-trace digest must come out identical.
    const fs::path on_path =
        fs::path(::testing::TempDir()) / "engine_diff_on.ck";
    const fs::path off_path =
        fs::path(::testing::TempDir()) / "engine_diff_off.ck";

    chaos::CampaignSpec spec = knotRecoverySpec();
    spec.checkpointEvery = 512;

    spec.cfg.eventEngine = true;
    spec.checkpointPath = on_path.string();
    const chaos::CampaignResult on = chaos::runCampaign(spec);
    spec.cfg.eventEngine = false;
    spec.checkpointPath = off_path.string();
    const chaos::CampaignResult off = chaos::runCampaign(spec);

    EXPECT_EQ(on.checkpointsWritten, off.checkpointsWritten);
    EXPECT_GT(on.checkpointsWritten, 0u);
    EXPECT_EQ(on.tailDigest, off.tailDigest);
    EXPECT_EQ(on.tailDigestFrom, off.tailDigestFrom);
    EXPECT_EQ(on.stateDigest, off.stateDigest);

    // Cross-engine restore: resume the time-stepped run from the
    // checkpoint the event engine wrote. The tail must match the
    // straight-through run exactly.
    chaos::CampaignSpec resume = knotRecoverySpec();
    resume.cfg.eventEngine = false;
    resume.restorePath = on_path.string();
    const chaos::CampaignResult resumed = chaos::runCampaign(resume);
    ASSERT_TRUE(resumed.restored) << resumed.checkpointError;
    EXPECT_EQ(resumed.tailDigest, off.tailDigest);
    EXPECT_EQ(resumed.stateDigest, off.stateDigest);
    EXPECT_EQ(resumed.cycles, off.cycles);

    fs::remove(on_path);
    fs::remove(off_path);
}

/**
 * Saturated Two-Phase traffic at buffer depths other than the default
 * four flits: 3 is not a power of two, 6 is deeper than the default.
 * The DIBU ring arithmetic wraps at every depth, so each trace must
 * equal the digest pinned from the hash-table/per-VC-FIFO data plane
 * the compact one replaced, under both engines.
 */
TEST(EngineDifferential, NonDefaultBufferDepthsMatchPinnedDigests)
{
    struct Case
    {
        int bufDepth;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {3, 0x206795bc99fe79edull},
        {6, 0x9cf5539da1833983ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.bufDepth);
        obs::RecordSpec spec;
        spec.cfg.protocol = Protocol::TwoPhase;
        spec.cfg.k = 8;
        spec.cfg.n = 2;
        spec.cfg.msgLength = 16;
        spec.cfg.load = 0.45;
        spec.cfg.bufDepth = c.bufDepth;
        spec.cfg.seed = 17;
        spec.cycles = 3000;
        for (const bool engine : {true, false}) {
            spec.cfg.eventEngine = engine;
            const obs::TraceRecorder rec = obs::recordRun(spec);
            EXPECT_EQ(rec.digest(), c.digest) << "event engine " << engine;
        }
    }
}

/**
 * The teardown paths the golden scenarios never take — a knot heal, and
 * a tail-acknowledged kill with its MsgAck walkers and retransmission —
 * pinned to values recorded before fault kills, setup aborts and knot
 * heals shared one teardown. The engine comparisons above cannot see a
 * change both engines share; these can.
 */
TEST(EngineDifferential, HandBuiltKnotHealMatchesPinnedDigest)
{
    const KnotRun run = runHandBuiltKnot(true);
    EXPECT_EQ(run.digest, 0xacf9dba10ce85d5eull);
    EXPECT_EQ(run.events, 703u);
}

TEST(EngineDifferential, RecoveryCampaignMatchesPinnedJson)
{
    struct Case
    {
        bool tailAck;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {false, 0xeaaaf5105271f0e1ull},
        {true, 0xa7dc0500ef85bd98ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.tailAck);
        chaos::CampaignSpec spec = knotRecoverySpec();
        spec.cfg.tailAck = c.tailAck;
        const std::string json =
            chaos::campaignJson(chaos::runCampaign(spec));
        EXPECT_EQ(obs::fnv1a64(json.data(), json.size()), c.digest);
    }
}

TEST(EngineDifferential, TailAckDynamicKillMatchesPinnedDigest)
{
    // The tp-dynkill golden scenario with tail acknowledgments and a
    // later kill that cuts three circuits: one source retransmits, one
    // message loses its endpoint, and MsgAck walkers run throughout.
    obs::RecordSpec spec = obs::goldenSpecs(goldenSeed)[3];
    spec.cfg.tailAck = true;
    spec.faults = {{200, FaultKind::NodeKill, 6}};
    for (const bool engine : {true, false}) {
        spec.cfg.eventEngine = engine;
        const obs::TraceRecorder rec = obs::recordRun(spec);
        EXPECT_EQ(rec.digest(), 0x1ceae722953ab8baull)
            << "event engine " << engine;
        EXPECT_EQ(rec.size(), 4098u) << "event engine " << engine;
    }
}

/**
 * The three Bernoulli fault processes — node, link and intermittent
 * link — armed together in one Simulator::run, the only fault path
 * that draws its victims from the network's own RNG mid-run. The
 * digest and the fault counters are pinned to values recorded before
 * the processes and the fault schedule shared one strike.
 */
TEST(EngineDifferential, BernoulliFaultProcessesMatchPinnedDigest)
{
    SimConfig cfg;
    cfg.protocol = Protocol::TwoPhase;
    cfg.k = 8;
    cfg.n = 2;
    cfg.msgLength = 16;
    cfg.load = 0.10;
    cfg.warmup = 500;
    cfg.measure = 3000;
    cfg.drain = 20000;
    cfg.dynamicNodeFaults = 3;
    cfg.dynamicLinkFaults = 3;
    cfg.intermittentFaults = 3;
    cfg.intermittentDownCycles = 400;
    cfg.seed = 11;
    for (const bool engine : {true, false}) {
        SCOPED_TRACE(engine);
        cfg.eventEngine = engine;
        obs::TraceRecorder rec;
        const RunResult r = Simulator(cfg).run(0, &rec);
        EXPECT_EQ(rec.digest(), 0xc809eef025276177ull);
        EXPECT_EQ(rec.size(), 166495u);
        EXPECT_EQ(r.counters.dynamicFaults, 8u);
        EXPECT_EQ(r.counters.intermittentFaults, 2u);
        EXPECT_EQ(r.counters.linksRestored, 2u);
    }
}

} // namespace
} // namespace tpnet
