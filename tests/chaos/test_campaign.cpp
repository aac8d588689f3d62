/** @file Chaos campaigns: randomized fault schedules, the progress
 *  watchdog, and the exactly-once delivery oracle. */

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using namespace chaos;

/** Small, fast campaign spec shared by the tests below. */
CampaignSpec
smallCampaign(bool tail_ack, std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.msgLength = 16;
    spec.cfg.load = 0.05;
    spec.cfg.tailAck = tail_ack;
    spec.cfg.maxRetries = 6;
    spec.seed = seed;
    spec.injectCycles = 4000;
    spec.drainCycles = 100000;
    spec.faults.horizon = 4000;
    spec.faults.earliest = 50;
    spec.faults.nodeKills = 2;
    spec.faults.linkKills = 2;
    spec.faults.intermittents = 3;
    spec.faults.downMin = 100;
    spec.faults.downMax = 500;
    return spec;
}

TEST(FaultSchedule, ScriptedEventsFireAtTheirCycle)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.watchdog = 0;
    Network net(cfg);
    Rng rng(99);

    FaultSchedule sched;
    sched.add({20, FaultKind::NodeKill, 5, -1, 0});
    sched.add({10, FaultKind::LinkIntermittent, 1, portOf(0, Dir::Plus),
               100});
    EXPECT_EQ(sched.size(), 2u);

    for (int c = 0; c < 30; ++c) {
        sched.apply(net, rng);
        net.step();
        if (net.now() <= 10) {
            EXPECT_EQ(net.healthyNodes().size(), 16u);
        }
    }
    EXPECT_TRUE(sched.exhausted());
    EXPECT_EQ(sched.fired(), 2u);
    EXPECT_EQ(sched.skipped(), 0u);
    EXPECT_TRUE(net.nodeFaulty(5));
    EXPECT_EQ(net.counters().intermittentFaults, 1u);
}

TEST(FaultSchedule, OpenNodeKillSparesNodeZeroUnderProtectPerimeter)
{
    // An open victim is drawn by the same rule as the Bernoulli node
    // process: under protectPerimeter the draw skips node 0.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
        cfg.watchdog = 0;
        cfg.protectPerimeter = true;
        Network net(cfg);
        Rng rng(seed);
        FaultSchedule sched;
        for (int i = 0; i < 8; ++i)
            sched.add({0, FaultKind::NodeKill, invalidNode, -1, 0});
        sched.apply(net, rng);
        EXPECT_EQ(sched.fired(), 8u);
        EXPECT_FALSE(net.nodeFaulty(0));
        for (const FaultEvent &ev : sched.firedEvents())
            EXPECT_NE(ev.node, 0);
    }
}

TEST(FaultSchedule, PinnedVictimOffTheTopologyIsSkipped)
{
    // A pinned node or port the topology does not have is skipped the
    // way a victim already down is, never indexed.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.watchdog = 0;
    Network net(cfg);
    Rng rng(5);
    FaultSchedule sched;
    sched.add({10, FaultKind::NodeKill, 99999, -1, 0});
    sched.add({10, FaultKind::LinkKill, 3, 99, 0});
    sched.add({10, FaultKind::LinkIntermittent, -7, 0, 5});
    for (int c = 0; c < 12; ++c) {
        sched.apply(net, rng);
        net.step();
    }
    EXPECT_TRUE(sched.exhausted());
    EXPECT_EQ(sched.skipped(), 3u);
    EXPECT_EQ(sched.fired(), 0u);
    EXPECT_EQ(net.counters().dynamicFaults, 0u);
}

TEST(FaultSchedule, RandomizedTimelineRespectsSpec)
{
    ScheduleSpec spec;
    spec.horizon = 1000;
    spec.earliest = 100;
    spec.nodeKills = 3;
    spec.linkKills = 2;
    spec.intermittents = 4;
    spec.downMin = 50;
    spec.downMax = 60;
    Rng rng(7);
    FaultSchedule sched = FaultSchedule::randomized(spec, rng);
    ASSERT_EQ(sched.size(), 9u);
    for (const FaultEvent &ev : sched.events()) {
        EXPECT_GE(ev.at, spec.earliest);
        EXPECT_LT(ev.at, spec.horizon);
        if (ev.kind == FaultKind::LinkIntermittent) {
            EXPECT_GE(ev.downFor, spec.downMin);
            EXPECT_LE(ev.downFor, spec.downMax);
        }
    }
}

TEST(Campaign, CleanRunPassesWithoutTailAcks)
{
    const CampaignResult r = runCampaign(smallCampaign(false, 11));
    EXPECT_TRUE(r.passed) << (r.violations.empty()
                                  ? "?"
                                  : r.violations.front());
    EXPECT_TRUE(r.quiescent);
    EXPECT_GT(r.messages, 0u);
    EXPECT_GT(r.faultsFired, 0u);
}

TEST(Campaign, CleanRunPassesWithTailAcks)
{
    const CampaignResult r = runCampaign(smallCampaign(true, 12));
    EXPECT_TRUE(r.passed) << (r.violations.empty()
                                  ? "?"
                                  : r.violations.front());
    EXPECT_TRUE(r.quiescent);
    // With tail acks a dynamic fault never silently loses a message.
    EXPECT_EQ(r.counters.lost, 0u);
}

TEST(Campaign, SameSeedIsDeterministic)
{
    const CampaignSpec spec = smallCampaign(true, 13);
    const CampaignResult a = runCampaign(spec);
    const CampaignResult b = runCampaign(spec);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.faultsFired, b.faultsFired);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_EQ(a.counters.delivered, b.counters.delivered);
    EXPECT_EQ(a.counters.dropped, b.counters.dropped);
    EXPECT_EQ(a.counters.lost, b.counters.lost);
}

TEST(Campaign, ParallelGridMatchesSequential)
{
    // The tpnet_verify --jobs N path: the same campaign grid run on one
    // worker and on several must produce bit-identical results — a
    // campaign is a pure function of its spec, never of thread
    // identity or completion order.
    std::vector<CampaignSpec> specs;
    for (std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u})
        specs.push_back(smallCampaign(seed % 2 == 0, seed));

    const std::vector<CampaignResult> seq = runCampaigns(specs, 1);
    const std::vector<CampaignResult> par = runCampaigns(specs, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].seed, par[i].seed);
        EXPECT_EQ(seq[i].passed, par[i].passed);
        EXPECT_EQ(seq[i].cycles, par[i].cycles);
        EXPECT_EQ(seq[i].messages, par[i].messages);
        EXPECT_EQ(seq[i].faultsFired, par[i].faultsFired);
        EXPECT_EQ(seq[i].violations, par[i].violations);
        EXPECT_EQ(seq[i].counters.delivered, par[i].counters.delivered);
        EXPECT_EQ(seq[i].counters.dropped, par[i].counters.dropped);
        EXPECT_EQ(seq[i].counters.lost, par[i].counters.lost);
        EXPECT_EQ(seq[i].counters.dataCrossings,
                  par[i].counters.dataCrossings);
    }
}

TEST(Campaign, SeededRecoveryBugIsDetected)
{
    // Deliberately break fault recovery (skip the kill sweep) and
    // verify the harness catches it: the oracle, the watchdog, or the
    // structural validator must flag the run as a failure. Long
    // messages at a solid load keep circuits in flight, so a fault
    // almost surely interrupts one.
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        CampaignSpec spec = smallCampaign(false, seed);
        spec.cfg.msgLength = 64;
        spec.cfg.load = 0.2;
        spec.faults.nodeKills = 3;
        spec.faults.linkKills = 3;
        spec.injectSkipKillBug = true;
        const CampaignResult r = runCampaign(spec);
        if (!r.passed) {
            EXPECT_FALSE(r.violations.empty());
            return;  // detected — that's the contract
        }
    }
    FAIL() << "seeded kill-sweep bug went undetected across 3 seeds";
}

TEST(CampaignDeath, PanicNamesTheCampaignSeed)
{
    // tpnet_verify's seed-2 grid cell (Duato on the 4-ary 3-cube at load
    // 0.15, fault intensity 2) with the kill sweep skipped trips a
    // simulator panic before any checker reports. The panic line names
    // the campaign, so a sweep that aborts says which seed to replay.
    CampaignSpec spec;
    spec.cfg.protocol = Protocol::Duato;
    spec.cfg.k = 4;
    spec.cfg.n = 3;
    spec.cfg.load = 0.15;
    spec.cfg.maxRetries = 6;
    spec.seed = 2;
    spec.injectCycles = 8000;
    spec.drainCycles = 200000;
    spec.verifyCwg = true;
    spec.injectSkipKillBug = true;
    spec.faults.horizon = 8000;
    spec.faults.earliest = 80;
    spec.faults.nodeKills = 4;
    spec.faults.linkKills = 4;
    spec.faults.intermittents = 6;
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    EXPECT_DEATH(runCampaign(spec),
                 "panic: data flit of retired message in flight.*"
                 "\\[campaign seed 2\\]");
}

} // namespace
} // namespace tpnet
