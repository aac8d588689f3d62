/**
 * @file
 * Idle-skip correctness: every wakeup source the cycle-skip fast path
 * aggregates must fire on its *exact* cycle. A skip that coasts one
 * cycle past an intermittent restore, a checkpoint boundary, a
 * watchdog sweep, or a metrics sample silently diverges from the
 * time-stepped engine — these tests pin each boundary individually,
 * then cross-check whole campaigns under both engines.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "chaos/watchdog.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/simulator.hpp"
#include "helpers.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/recorder.hpp"

namespace tpnet {
namespace {

using namespace chaos;
namespace fs = std::filesystem;

SimConfig
idleConfig()
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4);
    cfg.watchdog = 0;  // isolate the restore wakeup
    return cfg;
}

TEST(EventSkip, IntermittentRestoreIsTheNextInternalEvent)
{
    // A far-future intermittent restore on an otherwise dead network:
    // once the teardown settles, the pending restore must be exactly
    // what nextInternalEvent() reports, and skipping straight to it
    // must restore the link on that cycle — not one later.
    SimConfig cfg = idleConfig();
    cfg.eventEngine = true;
    Network net(cfg);
    const Cycle down = 5000;
    const Link &victim = net.link(0);
    net.failLinkIntermittent(victim.src, victim.srcPort, down);
    const Cycle restoreAt = down;  // scheduled at now (0) + down

    // Nothing was in flight, so the network is idle immediately.
    for (Cycle c = 0; c < 4 && !net.idle(); ++c)
        net.step();
    ASSERT_TRUE(net.idle());
    ASSERT_EQ(net.nextInternalEvent(), restoreAt);

    net.skipTo(net.nextInternalEvent());
    EXPECT_EQ(net.now(), restoreAt);
    EXPECT_EQ(net.counters().linksRestored, 0u);
    net.step();
    EXPECT_EQ(net.counters().linksRestored, 1u);
    EXPECT_FALSE(net.link(0).faulty);
    // With the restore consumed there is nothing left on the horizon.
    EXPECT_EQ(net.nextInternalEvent(), cycleNever);
}

TEST(EventSkip, SkipToJustBeforeTheRestoreDoesNotFireItEarly)
{
    SimConfig cfg = idleConfig();
    cfg.eventEngine = true;
    Network net(cfg);
    const Link &victim = net.link(0);
    net.failLinkIntermittent(victim.src, victim.srcPort, 300);
    ASSERT_TRUE(net.idle());
    net.skipTo(299);
    net.step();  // cycle 299: one cycle early, nothing may happen
    EXPECT_EQ(net.counters().linksRestored, 0u);
    net.step();  // cycle 300: the restore fires
    EXPECT_EQ(net.counters().linksRestored, 1u);
}

TEST(EventSkip, WatchdogDeadlineNeverExceedsTheNextSweepBoundary)
{
    // Conservation/validator sweeps re-report persistent violations,
    // so the watchdog must cap any skip at the next cadence boundary
    // even when the network looks perfectly healthy.
    SimConfig cfg = idleConfig();
    Network net(cfg);
    WatchdogConfig wcfg;  // conserveEvery 256, validateEvery 512
    Watchdog dog(net, wcfg);
    dog.observe();
    EXPECT_EQ(dog.nextDeadline(), 256u);

    // The deadline tracks the clock across sweeps.
    net.skipTo(256);
    dog.skipTo(256);
    dog.observe();
    EXPECT_EQ(dog.nextDeadline(), 512u);
    EXPECT_TRUE(dog.violations().empty());
}

TEST(EventSkip, MetricsSkipIdleMatchesPerCycleTicking)
{
    SimConfig cfg = idleConfig();
    Network net(cfg);
    const int period = 7;
    obs::MetricsRegistry ticked(net, period);
    obs::MetricsRegistry skipped(net, period);

    // 3 plain ticks, then 25 skipped cycles, then 2 more ticks: the
    // sample count and every accumulated statistic must match a
    // registry that ticked all 30 cycles one by one.
    for (int c = 0; c < 30; ++c)
        ticked.tick(net);
    for (int c = 0; c < 3; ++c)
        skipped.tick(net);
    skipped.skipIdle(net, 25);
    for (int c = 0; c < 2; ++c)
        skipped.tick(net);

    EXPECT_EQ(ticked.summary().samples, skipped.summary().samples);
    EXPECT_EQ(ticked.summary().samples,
              static_cast<std::uint64_t>(30 / period));
    EXPECT_EQ(ticked.summary().occupancy.count(),
              skipped.summary().occupancy.count());
    EXPECT_EQ(ticked.summary().dataUtil.count(),
              skipped.summary().dataUtil.count());
}

TEST(EventSkip, SimulatorMeasureWindowSamplingIsEngineInvariant)
{
    // Zero offered load makes the whole warmup/measure/drain idle: the
    // event engine skips essentially every cycle, yet the metrics
    // samples must land on the same cycles and in the same number.
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.protocol = Protocol::TwoPhase;
    cfg.load = 0.0;
    cfg.warmup = 500;
    cfg.measure = 1000;
    cfg.drain = 1000;
    cfg.metricsPeriod = 7;
    cfg.seed = 99;

    cfg.eventEngine = true;
    const RunResult on = Simulator(cfg).run();
    cfg.eventEngine = false;
    const RunResult off = Simulator(cfg).run();

    EXPECT_EQ(on.vc.samples, off.vc.samples);
    EXPECT_EQ(on.vc.samples, static_cast<std::uint64_t>(1000 / 7));
    EXPECT_EQ(on.vc.occupancy.count(), off.vc.occupancy.count());
}

TEST(EventSkip, CampaignCheckpointCadenceSurvivesSkipping)
{
    // Low load and a deliberately long drain: most of the campaign is
    // idle coasting, but the checkpoint-every boundaries are wakeup
    // tokens and every one of them must still be written.
    const fs::path on_path =
        fs::path(::testing::TempDir()) / "event_skip_on.ck";
    const fs::path off_path =
        fs::path(::testing::TempDir()) / "event_skip_off.ck";

    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4);
    spec.cfg.load = 0.02;
    spec.seed = 5;
    spec.injectCycles = 1000;
    spec.drainCycles = 20000;
    spec.checkpointEvery = 128;

    spec.cfg.eventEngine = true;
    spec.checkpointPath = on_path.string();
    const CampaignResult on = runCampaign(spec);
    spec.cfg.eventEngine = false;
    spec.checkpointPath = off_path.string();
    const CampaignResult off = runCampaign(spec);

    EXPECT_TRUE(on.passed) << on.summary();
    EXPECT_EQ(on.checkpointsWritten, off.checkpointsWritten);
    EXPECT_GT(on.checkpointsWritten, 0u);
    EXPECT_EQ(on.tailDigest, off.tailDigest);
    EXPECT_EQ(on.stateDigest, off.stateDigest);
    EXPECT_EQ(on.cycles, off.cycles);

    fs::remove(on_path);
    fs::remove(off_path);
}

TEST(EventSkip, WatchdogViolationCyclesAreEngineInvariant)
{
    // The skip-kill test hook strands circuits on purpose, so the
    // watchdog's cadenced conservation sweeps and stall reports keep
    // firing deep into an otherwise idle drain. Every report embeds
    // the cycle it fired on: identical violation lists prove no sweep
    // was skipped past and none fired early.
    // Long messages at a solid load keep circuits in flight, so the
    // kills almost surely interrupt one (same shape as the chaos
    // suite's SeededRecoveryBugIsDetected).
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4);
    spec.cfg.msgLength = 64;
    spec.cfg.load = 0.2;
    spec.cfg.maxRetries = 6;
    spec.seed = 11;
    spec.injectCycles = 4000;
    spec.drainCycles = 40000;
    spec.injectSkipKillBug = true;
    spec.faults.horizon = 4000;
    spec.faults.earliest = 50;
    spec.faults.nodeKills = 3;
    spec.faults.linkKills = 3;

    spec.cfg.eventEngine = true;
    const CampaignResult on = runCampaign(spec);
    spec.cfg.eventEngine = false;
    const CampaignResult off = runCampaign(spec);

    EXPECT_FALSE(on.passed);  // the hook must be detected
    EXPECT_EQ(on.violations, off.violations);
    // The list itself is pinned: its count, first line and FNV-1a 64
    // digest of the lines joined by newlines.
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::string &line : on.violations) {
        for (const char ch : line + "\n") {
            digest ^= static_cast<unsigned char>(ch);
            digest *= 0x100000001b3ull;
        }
    }
    ASSERT_EQ(on.violations.size(), 77u);
    EXPECT_EQ(on.violations.front(),
              "cycle 1024: validator: trio (19,2) on faulty link still "
              "owned by msg 33 with no teardown in progress");
    EXPECT_EQ(digest, 0x3bd1ab21fb689814ull) << std::hex << " 0x" << digest;
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(campaignJson(on), campaignJson(off));
}

TEST(EventSkip, RetryBackoffWakesTheSourceOnTheExactCycle)
{
    // A WaitRetry message is the classic internal wakeup: kill the
    // only route, let the source back off, and the retry cycle shows
    // up in nextInternalEvent(). Both engines must deliver or drop on
    // the same cycle with the same retry count.
    SimConfig base = test::smallConfig(Protocol::TwoPhase, 4);
    base.watchdog = 0;
    base.retryBackoff = 4096;  // long idle gaps between attempts
    base.maxRetries = 3;

    auto run = [&](bool engine) -> Cycle {
        SimConfig cfg = base;
        cfg.eventEngine = engine;
        Network net(cfg);
        // Isolate node 2 of the 4x4 torus: fail all four neighbors.
        net.failNode(1);
        net.failNode(3);
        net.failNode(6);
        net.failNode(14);
        net.offerMessage(0, 2);
        Cycle guard = 0;
        while (!net.quiescent() && guard < 100000) {
            if (net.eventEngine() && net.idle()) {
                const Cycle target = net.nextInternalEvent();
                if (target == cycleNever) {
                    ADD_FAILURE() << "idle with a live message but no "
                                     "internal event scheduled";
                    break;
                }
                net.skipTo(target);
                guard = target;
            }
            net.step();
            ++guard;
        }
        EXPECT_TRUE(net.quiescent());
        EXPECT_EQ(net.counters().delivered, 0u);
        EXPECT_EQ(net.counters().dropped, 1u);
        return net.now();
    };

    Cycle on = 0;
    Cycle off = 0;
    {
        SCOPED_TRACE("event engine");
        on = run(true);
    }
    {
        SCOPED_TRACE("time stepped");
        off = run(false);
    }
    EXPECT_EQ(on, off);
    EXPECT_GT(on, 2u * 4096u);  // the backoffs were actually served
}

TEST(EventSkip, ScriptedFaultAfterALongIdleGapFiresOnItsExactCycle)
{
    // Zero offered load: the whole campaign is idle, so the event
    // engine skips straight from cycle 1 to the scripted fault. The
    // fault is an intermittent outage whose restore races a permanent
    // kill of the same link, scripted for the first cycle the link is
    // back: a fault that fired even one cycle late would still be down
    // then, and the kill would be skipped instead of fired.
    const Cycle at = 5000;
    const Cycle down = 3000;
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4);
    spec.seed = 3;
    spec.injectCycles = 12000;
    spec.drainCycles = 1000;
    const Network probe(spec.cfg);
    const NodeId node = probe.link(0).src;
    const int port = probe.link(0).srcPort;
    spec.scriptedFaults = {
        {at, FaultKind::LinkIntermittent, node, port, down},
        {at + down + 1, FaultKind::LinkKill, node, port, 0},
    };

    spec.cfg.eventEngine = true;
    const CampaignResult on = runCampaign(spec);
    spec.cfg.eventEngine = false;
    const CampaignResult off = runCampaign(spec);

    EXPECT_TRUE(on.passed) << on.summary();
    EXPECT_EQ(off.faultsFired, 2u);
    EXPECT_EQ(on.faultsFired, off.faultsFired);
    ASSERT_EQ(on.firedEvents.size(), off.firedEvents.size());
    for (std::size_t i = 0; i < on.firedEvents.size(); ++i)
        EXPECT_EQ(on.firedEvents[i].at, off.firedEvents[i].at);
    EXPECT_EQ(campaignJson(on), campaignJson(off));
}

TEST(EventSkip, SimulatorDrainStoppingOnAnIdleNetworkIsEngineInvariant)
{
    // Zero offered load with intermittent link faults: the network is
    // idle between outages and restores, so warmup and measurement are
    // mostly skipped, and the drain's stop predicate (every measured
    // message resolved) already holds on the idle network. Both
    // engines must return the same result and the same trace.
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.protocol = Protocol::TwoPhase;
    cfg.load = 0.0;
    cfg.warmup = 300;
    cfg.measure = 2000;
    cfg.drain = 5000;
    cfg.intermittentFaults = 3;
    cfg.intermittentDownCycles = 400;
    cfg.metricsPeriod = 16;
    cfg.seed = 17;

    auto run = [&](bool engine, obs::TraceRecorder *rec) {
        SimConfig c = cfg;
        c.eventEngine = engine;
        return Simulator(c).run(0, rec);
    };
    obs::TraceRecorder recOn;
    obs::TraceRecorder recOff;
    const RunResult on = run(true, &recOn);
    const RunResult off = run(false, &recOff);

    EXPECT_GT(off.counters.linksRestored, 0u);
    EXPECT_EQ(on.row(), off.row());
    EXPECT_EQ(on.counters.dynamicFaults, off.counters.dynamicFaults);
    EXPECT_EQ(on.counters.linksRestored, off.counters.linksRestored);
    EXPECT_EQ(on.vc.samples, off.vc.samples);
    EXPECT_EQ(on.vc.occupancy.count(), off.vc.occupancy.count());
    EXPECT_EQ(recOn.digest(), recOff.digest());
    EXPECT_EQ(recOn.size(), recOff.size());
}

} // namespace
} // namespace tpnet
