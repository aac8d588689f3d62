/**
 * @file
 * Paper-conformance tier (ctest label `conformance`): deterministic
 * scenarios pinned one-to-one to claims of "Configurable Flow Control
 * Mechanisms for Fault-Tolerant Routing" (ISCA 1995). Every test cites
 * the section or theorem it holds the implementation to. Unlike the
 * randomized property suites, nothing here draws from a test-local
 * RNG: seeds, topologies, victims, and fault times are all pinned, so
 * a failure is a conformance break, not a flaky draw.
 */

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "chaos/fault_schedule.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;

/**
 * Section 2.2 — scouting flow control: "the first data flit is allowed
 * to advance only when the header is at least K hops ahead", enforced
 * per hop by the CMU counters fed with positive/negative
 * acknowledgments. The trace-level checker replays every data-flit
 * crossing against the probe's progress; one premature crossing fails.
 */
TEST(Conformance22, ScoutGapHoldsAtPinnedScoutingDistances)
{
    for (int scoutK : {1, 3, 5}) {
        SCOPED_TRACE(testing::Message() << "K=" << scoutK);
        obs::RecordSpec spec;
        spec.cfg = smallConfig(Protocol::Scouting, 8, 2);
        spec.cfg.scoutK = scoutK;
        spec.cfg.msgLength = 8;
        spec.cfg.load = 0.15;
        spec.cfg.seed = 22001 + static_cast<std::uint64_t>(scoutK);
        spec.cycles = 600;
        const obs::TraceRecorder rec = obs::recordRun(spec);
        const obs::CheckResult gap =
            obs::checkScoutGap(rec.events(), scoutK);
        EXPECT_TRUE(gap.ok) << gap.error;
        EXPECT_GT(gap.checked, 0u);
    }
}

/**
 * Section 2.2 on the binary 3-cube — the paper's canonical topology is
 * the binary hypercube; the invariant must not be an artifact of the
 * 2D torus the rest of the suite favours.
 */
TEST(Conformance22, ScoutGapHoldsOnBinaryThreeCube)
{
    obs::RecordSpec spec;
    spec.cfg = smallConfig(Protocol::Scouting, 2, 3);
    spec.cfg.scoutK = 2;
    spec.cfg.msgLength = 8;
    spec.cfg.load = 0.20;
    spec.cfg.seed = 22300;
    spec.cycles = 800;
    const obs::TraceRecorder rec = obs::recordRun(spec);
    const obs::CheckResult gap = obs::checkScoutGap(rec.events(), 2);
    EXPECT_TRUE(gap.ok) << gap.error;
    EXPECT_GT(gap.checked, 0u);
}

/**
 * Theorem 3 — "fully adaptive routing with deadlock freedom based on
 * Duato's protocol": the escape-channel dependency graph must stay
 * acyclic. The CWG analyzer proves the run-time side: under sustained
 * saturation no escape-class wait cycle (and no knot) may ever form;
 * adaptive OR-wait cycles are the transients the theorem permits.
 */
TEST(ConformanceTheorem3, EscapeCdgStaysAcyclicUnderSaturation)
{
    for (Protocol p : {Protocol::Duato, Protocol::TwoPhase}) {
        SCOPED_TRACE(protocolName(p));
        SimConfig cfg = smallConfig(p, 8, 2);
        cfg.load = 0.35;
        cfg.msgLength = 16;
        cfg.seed = 30003;
        cfg.verifyCwg = true;
        Network net(cfg);
        Injector inj(net);
        for (int c = 0; c < 6000; ++c) {
            inj.step();
            net.step();
        }
        inj.stop();
        EXPECT_TRUE(runToQuiescent(net, 200000));
        ASSERT_NE(net.cwg(), nullptr);
        EXPECT_TRUE(net.cwg()->violations().empty())
            << net.cwg()->violations().front().diagnosis;
    }
}

/** Theorem 3 exercised on the 4-ary 3-cube (64 nodes, 3 dimensions). */
TEST(ConformanceTheorem3, EscapeCdgStaysAcyclicOnThreeCube)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 4, 3);
    cfg.load = 0.25;
    cfg.msgLength = 16;
    cfg.seed = 30043;
    cfg.verifyCwg = true;
    Network net(cfg);
    Injector inj(net);
    for (int c = 0; c < 4000; ++c) {
        inj.step();
        net.step();
    }
    inj.stop();
    EXPECT_TRUE(runToQuiescent(net, 200000));
    ASSERT_NE(net.cwg(), nullptr);
    EXPECT_TRUE(net.cwg()->violations().empty())
        << net.cwg()->violations().front().diagnosis;
}

/**
 * Section 5.0 — fault recovery: when a node dies mid-run, every
 * circuit through it is killed (kill flits walk both ways, Fig. 16),
 * and with tail acknowledgments armed (Fig. 17) every affected message
 * is retransmitted — the delivery contract tightens to "delivered
 * exactly once or declared undeliverable", with zero silent losses.
 * Pinned victims on the binary 3-cube, scripted fault times, CWG armed.
 */
TEST(Conformance50, KillRecoveryOnThreeCubeLosesNothingUnderTailAck)
{
    chaos::CampaignSpec spec;
    spec.cfg = smallConfig(Protocol::TwoPhase, 2, 3);
    spec.cfg.load = 0.15;
    spec.cfg.msgLength = 8;
    spec.cfg.tailAck = true;
    spec.cfg.maxRetries = 6;
    spec.seed = 50001;
    spec.injectCycles = 4000;
    spec.drainCycles = 200000;
    spec.verifyCwg = true;
    // Node 5 dies at cycle 700, then the 1->3 link at 1500 (the 3-cube
    // has node 5's mirror routes left; recovery must re-route around
    // both).
    spec.scriptedFaults.push_back(
        {700, FaultKind::NodeKill, 5, -1, 0});
    spec.scriptedFaults.push_back(
        {1500, FaultKind::LinkKill, 1, 1, 0});
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.faultsFired, 2u);
    EXPECT_EQ(r.counters.lost, 0u);  // TAck: no silent losses, ever
    EXPECT_GT(r.counters.delivered, 0u);
    EXPECT_EQ(r.cwgViolations, 0u);
}

/**
 * Section 5.0 without tail acknowledgments: messages cut by the fault
 * are lost (and must be *accounted* lost, not wedged), everything else
 * drains. The same scripted timeline as above keeps the comparison
 * honest.
 */
TEST(Conformance50, KillRecoveryOnThreeCubeAccountsLossesWithoutTailAck)
{
    chaos::CampaignSpec spec;
    spec.cfg = smallConfig(Protocol::TwoPhase, 2, 3);
    spec.cfg.load = 0.15;
    spec.cfg.msgLength = 8;
    spec.cfg.maxRetries = 6;
    spec.seed = 50001;
    spec.injectCycles = 4000;
    spec.drainCycles = 200000;
    spec.verifyCwg = true;
    spec.scriptedFaults.push_back(
        {700, FaultKind::NodeKill, 5, -1, 0});
    spec.scriptedFaults.push_back(
        {1500, FaultKind::LinkKill, 1, 1, 0});
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_GT(r.counters.delivered, 0u);
    // Exactly-once accounting: created = delivered + dropped + lost is
    // part of the oracle's finalCheck, which r.passed already covers.
    EXPECT_EQ(r.cwgViolations, 0u);
}

} // namespace
} // namespace tpnet
