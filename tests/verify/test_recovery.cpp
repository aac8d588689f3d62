/**
 * @file
 * Knot-triggered deadlock recovery (ISSUE 6): the detect-and-heal
 * protocol mode. Knot shapes are hand-constructed through the live
 * network's own tracker (same driving idiom as test_knot.cpp, but
 * against Network::cwg() so the heal engine actually runs), then the
 * simulation steps and the heal is observed end to end: victim
 * selection over the reachable closure, circuit abort through the
 * kill-walk machinery, source retransmission on backoff, the per-knot
 * livelock budget, and exactly-once delivery under the oracle.
 *
 * Determinism is part of the contract: the victim RNG is a dedicated
 * stream, campaigns are shared-nothing, and recovery-mode traces are
 * bit-identical for any --jobs — the last tests here pin all three.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "verify/cwg.hpp"
#include "verify/victim.hpp"

namespace tpnet {
namespace {

using chaos::CampaignResult;
using chaos::CampaignSpec;
using chaos::DeliveryOracle;
using chaos::runCampaign;
using chaos::runCampaigns;
using test::smallConfig;

SimConfig
recoveryConfig(int max_heals = 8)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.recoveryMode = true;
    cfg.maxHealAttempts = max_heals;
    // Escalations must surface as recorded violations, not a panic.
    cfg.watchdog = 0;
    return cfg;
}

/**
 * Live-network variant of the KnotTest fixture: the same five offered
 * messages and hand-reserved trios, but the tracker driven is the
 * network's own, so pending knots flow into Network::stepHeals().
 */
class RecoveryTest : public ::testing::Test
{
  protected:
    explicit RecoveryTest(int max_heals = 8)
        : cfg_(recoveryConfig(max_heals)), net_(cfg_), oracle_(net_)
    {
        net_.attachTrace(&oracle_);
        for (NodeId s = 0; s < 5; ++s)
            net_.offerMessage(s, s + 9);
    }

    void
    own(NodeId node, int vc, MsgId owner)
    {
        net_.vc(net_.linkAt(node, 0).id, vc).reserve(owner, 0, false);
    }

    /** Undo own(): free the trio and tell the tracker. */
    void
    disown(NodeId node, int vc)
    {
        Link &link = net_.linkAt(node, 0);
        net_.vc(link.id, vc).owner = invalidMsg;
        net_.cwg()->onVcReleased(link.id, vc);
    }

    void
    blockOn(MsgId blocked, NodeId node, int vc)
    {
        Message &msg = net_.message(blocked);
        net_.cwg()->beginEvaluation(msg);
        net_.cwg()->noteCandidate(node, 0, vc);
        net_.cwg()->onBlocked(msg);
    }

    void
    blockOnMany(MsgId blocked,
                const std::vector<std::pair<NodeId, int>> &trios)
    {
        Message &msg = net_.message(blocked);
        net_.cwg()->beginEvaluation(msg);
        for (const auto &[node, vc] : trios)
            net_.cwg()->noteCandidate(node, 0, vc);
        net_.cwg()->onBlocked(msg);
    }

    /** Step until the heal's retransmission lands (bounded). */
    void
    stepUntilRetransmit(std::uint64_t want = 1)
    {
        for (int i = 0;
             i < 500 && net_.counters().healRetransmits < want; ++i)
            net_.step();
    }

    SimConfig cfg_;
    Network net_;
    DeliveryOracle oracle_;
};

TEST_F(RecoveryTest, KnotIsHealedByVictimAbortAndRetransmit)
{
    // The canonical 4-ring: msg i waits on a trio owned by msg i+1.
    // No member has an exit, so the ring is a knot the moment it
    // closes — in recovery mode that queues a heal instead of
    // recording a violation.
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);
    for (MsgId i = 0; i < 4; ++i)
        blockOn(i, static_cast<NodeId>(i), avc);
    EXPECT_TRUE(net_.cwg()->violations().empty());

    net_.step();  // stepHeals() consumes the pending knot
    EXPECT_EQ(net_.counters().knotsDetected, 1u);
    EXPECT_EQ(net_.counters().victimsAborted, 1u);
    ASSERT_EQ(net_.healLog().size(), 1u);
    // All four members were created the same cycle; the youngest
    // policy breaks the tie toward the larger id.
    EXPECT_EQ(net_.healLog().front().victim, 3u);
    EXPECT_EQ(net_.healLog().front().attempt, 1);
    EXPECT_TRUE(net_.cwg()->violations().empty());

    // The heal closes when the victim's abort walk has drained: the
    // latency is recorded and the source retransmission is scheduled
    // outside the ordinary retry budget.
    stepUntilRetransmit();
    EXPECT_EQ(net_.counters().healRetransmits, 1u);
    EXPECT_EQ(net_.counters().healLatency.count(),
              static_cast<std::uint64_t>(1));
    EXPECT_EQ(net_.message(3).healAttempts, 1);
    EXPECT_EQ(net_.message(3).retries, 0);

    // Dissolve the hand-made ownership and drain: every message —
    // including the aborted victim — must deliver exactly once.
    for (MsgId i = 0; i < 4; ++i)
        disown(static_cast<NodeId>(i), avc);
    ASSERT_TRUE(test::runToQuiescent(net_));
    oracle_.finalCheck();
    EXPECT_TRUE(oracle_.violations().empty());
    EXPECT_EQ(net_.counters().delivered, 5u);
    EXPECT_EQ(net_.counters().lost, 0u);
    EXPECT_EQ(net_.counters().healEscalations, 0u);
}

TEST_F(RecoveryTest, VictimIsSelectedOverTheFullClosureNotTheRing)
{
    // The closure-knot shape of test_knot.cpp: ring {0,1,2} plus
    // outsider msg 3, reachable through msg 0's alternative and itself
    // blocked back into the ring. The victim pool is the closure —
    // msg 3, the youngest-by-tiebreak member, is eligible even though
    // it is not a ring member.
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 3; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 3);
    own(3, avc, 3);  // msg 0's alternative, owned by msg 3
    own(4, avc, 1);  // msg 3's wait — owned inside the ring

    blockOn(3, 4, avc);
    blockOnMany(0, {{0, avc}, {3, avc}});
    blockOn(1, 1, avc);
    blockOn(2, 2, avc);

    // A second tracker fed the same evaluations queues the same knot;
    // its closure order (the victim pool's order) is pinned.
    verify::CwgTracker shadow(net_);
    shadow.armRecovery();
    const std::vector<std::pair<MsgId, std::vector<std::pair<NodeId, int>>>>
        evals = {{3, {{4, avc}}},
                 {0, {{0, avc}, {3, avc}}},
                 {1, {{1, avc}}},
                 {2, {{2, avc}}}};
    for (const auto &[id, trios] : evals) {
        Message &msg = net_.message(id);
        shadow.beginEvaluation(msg);
        for (const auto &[node, vc] : trios)
            shadow.noteCandidate(node, 0, vc);
        shadow.onBlocked(msg);
    }
    const std::vector<verify::PendingKnot> knots = shadow.takePendingKnots();
    ASSERT_EQ(knots.size(), 1u);
    EXPECT_EQ(knots.front().cycle.members, (std::vector<MsgId>{2, 0, 1}));
    EXPECT_EQ(knots.front().closure, (std::vector<MsgId>{1, 0, 3, 2}));

    net_.step();
    EXPECT_EQ(net_.counters().knotsDetected, 1u);
    EXPECT_EQ(net_.counters().victimsAborted, 1u);
    ASSERT_EQ(net_.healLog().size(), 1u);
    EXPECT_EQ(net_.healLog().front().victim, 3u);
    EXPECT_TRUE(net_.cwg()->violations().empty());

    stepUntilRetransmit();
    for (MsgId i = 0; i < 5; ++i)
        disown(static_cast<NodeId>(i), avc);
    ASSERT_TRUE(test::runToQuiescent(net_));
    oracle_.finalCheck();
    EXPECT_TRUE(oracle_.violations().empty());
    EXPECT_EQ(net_.counters().delivered, 5u);
    EXPECT_EQ(net_.counters().lost, 0u);
}

/** Same fixture, but the knot may only be healed once. */
class RecoveryBudgetTest : public RecoveryTest
{
  protected:
    RecoveryBudgetTest()
        : RecoveryTest(1)
    {
    }
};

TEST_F(RecoveryBudgetTest, ReformedKnotEscalatesPastTheHealBudget)
{
    // Livelock guard: the same knot (same canonical member set, same
    // hash) re-forms after its heal. With maxHealAttempts == 1 the
    // second detection must not burn another victim — it escalates
    // into a real violation carrying the livelock diagnosis.
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);
    for (MsgId i = 0; i < 4; ++i)
        blockOn(i, static_cast<NodeId>(i), avc);
    net_.step();
    EXPECT_EQ(net_.counters().victimsAborted, 1u);
    EXPECT_TRUE(net_.cwg()->violations().empty());

    // Wait for the heal episode to close (the hash is suppressed
    // while the abort walk drains), then re-form the identical knot.
    stepUntilRetransmit();
    for (MsgId i = 0; i < 4; ++i)
        blockOn(i, static_cast<NodeId>(i), avc);
    net_.step();

    EXPECT_EQ(net_.counters().knotsDetected, 2u);
    EXPECT_EQ(net_.counters().victimsAborted, 1u);  // no second victim
    EXPECT_EQ(net_.counters().healEscalations, 1u);
    ASSERT_EQ(net_.cwg()->violations().size(), 1u);
    EXPECT_NE(net_.cwg()->violations().front().diagnosis.find(
                  "heal budget exhausted"),
              std::string::npos);

    // Escalation is terminal for the hash: a third formation neither
    // re-reports nor heals.
    for (MsgId i = 0; i < 4; ++i)
        blockOn(i, static_cast<NodeId>(i), avc);
    net_.step();
    EXPECT_EQ(net_.cwg()->violations().size(), 1u);
    EXPECT_EQ(net_.counters().victimsAborted, 1u);
    EXPECT_EQ(net_.counters().healEscalations, 1u);
}

TEST(VictimSelection, PoliciesAreFaithfulAndSeedDeterministic)
{
    SimConfig cfg = recoveryConfig();
    Network net(cfg);
    for (NodeId s = 0; s < 4; ++s)
        net.offerMessage(s, s + 9);
    net.message(0).created = 10;
    net.message(1).created = 40;  // the youngest
    net.message(2).created = 20;
    net.message(3).created = 30;
    const std::vector<MsgId> closure{0, 1, 2, 3};

    Rng rng(7);
    EXPECT_EQ(verify::selectVictim(net, closure,
                                   VictimPolicy::YoungestMessage, rng),
              1u);
    // Nobody holds a hop yet: fewest-hops ties, larger id wins.
    EXPECT_EQ(verify::selectVictim(net, closure,
                                   VictimPolicy::FewestHopsHeld, rng),
              3u);

    // The random policy is a pure function of the RNG stream.
    Rng a(99), b(99);
    const MsgId ra = verify::selectVictim(
        net, closure, VictimPolicy::RandomSeeded, a);
    const MsgId rb = verify::selectVictim(
        net, closure, VictimPolicy::RandomSeeded, b);
    EXPECT_EQ(ra, rb);
    EXPECT_TRUE(ra <= 3);

    // Terminal members are never victims.
    net.message(1).state = MsgState::Delivered;
    EXPECT_NE(verify::selectVictim(net, closure,
                                   VictimPolicy::YoungestMessage, rng),
              1u);
}

CampaignSpec
recoveryCampaignSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg.protocol = Protocol::TwoPhase;
    spec.cfg.k = 8;
    spec.cfg.n = 2;
    spec.cfg.load = 0.15;
    spec.cfg.maxRetries = 6;
    spec.cfg.recoveryMode = true;
    spec.cfg.victimPolicy = VictimPolicy::RandomSeeded;
    spec.seed = seed;
    spec.injectCycles = 4000;
    spec.drainCycles = 100000;
    spec.verifyCwg = true;
    spec.faults.horizon = 4000;
    spec.faults.earliest = 40;
    spec.faults.nodeKills = 2;
    spec.faults.linkKills = 2;
    spec.faults.intermittents = 3;
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    return spec;
}

TEST(RecoveryDeterminism, CampaignsAreJobsInvariant)
{
    // Shared-nothing campaigns: the same specs must produce
    // bit-identical results — including every heal event and the
    // victim choices inside them — at --jobs 1 and --jobs 8.
    std::vector<CampaignSpec> specs;
    for (std::uint64_t s = 1; s <= 6; ++s)
        specs.push_back(recoveryCampaignSpec(s));

    const std::vector<CampaignResult> one = runCampaigns(specs, 1);
    const std::vector<CampaignResult> eight = runCampaigns(specs, 8);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].summary(), eight[i].summary());
        EXPECT_EQ(one[i].cycles, eight[i].cycles);
        EXPECT_EQ(one[i].healEvents, eight[i].healEvents);
        EXPECT_EQ(one[i].counters.delivered,
                  eight[i].counters.delivered);
        EXPECT_EQ(one[i].counters.knotsDetected,
                  eight[i].counters.knotsDetected);
        EXPECT_EQ(one[i].counters.victimsAborted,
                  eight[i].counters.victimsAborted);
        EXPECT_EQ(one[i].counters.healRetransmits,
                  eight[i].counters.healRetransmits);
        EXPECT_EQ(one[i].violations, eight[i].violations);
    }
}

TEST(RecoveryDeterminism, RecoveryTraceDigestIsJobsInvariant)
{
    // recordRun() itself cross-checks its workers' digests; comparing
    // a 1-job and a 4-job run additionally pins that the worker count
    // cannot leak into a recovery-mode trace at all.
    obs::RecordSpec spec = obs::goldenSpecs(3)[3];  // tp-dynkill
    spec.cfg.recoveryMode = true;
    spec.cfg.victimPolicy = VictimPolicy::RandomSeeded;
    const obs::TraceRecorder one = obs::recordRun(spec, 1);
    const obs::TraceRecorder four = obs::recordRun(spec, 4);
    EXPECT_GT(one.size(), 0u);
    EXPECT_EQ(one.digest(), four.digest());
}

TEST(RecoveryDeterminism, FaultCampaignsStayDeliveryClean)
{
    // Organic end-to-end: recovery campaigns under a heavy randomized
    // fault mix must drain with the oracle and watchdog silent (knots
    // are rare in the wild — the invariant is that recovery mode
    // never wedges or double-delivers, heals or no heals).
    for (std::uint64_t seed : {11ull, 17ull, 23ull}) {
        CampaignSpec spec = recoveryCampaignSpec(seed);
        spec.faults.nodeKills = 4;
        spec.faults.linkKills = 4;
        spec.faults.intermittents = 6;
        const CampaignResult r = runCampaign(spec);
        EXPECT_TRUE(r.passed) << r.summary();
        EXPECT_TRUE(r.quiescent) << r.summary();
        EXPECT_EQ(r.counters.healEscalations, 0u);
    }
}

} // namespace
} // namespace tpnet
