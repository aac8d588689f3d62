/**
 * @file
 * Knot-based deadlock verdicts (ISSUE 5): cases where the knot check
 * and the old OR-wait heuristic ("any adaptive alternative in a mixed
 * cycle means benign") *disagree*, in both directions, plus the
 * insertion/sweep agreement and the incremental exit-condition
 * lifecycle. General tracker bookkeeping lives in test_cwg.cpp.
 *
 * A cycle is a true deadlock only when its reachable closure over the
 * wait graph is a knot: every member's entire candidate set is owned
 * inside the closure and no closure member can progress, backtrack, or
 * abort. Where a candidate's *owner* sits — inside or outside the
 * closure, blocked or progressing — is what decides, not whether the
 * candidate is adaptive.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

using test::smallConfig;
using verify::CwgConfig;
using verify::CwgCycle;
using verify::CwgTracker;
using verify::CycleClass;

/** Same hand-driven fixture shape as CwgTest (see test_cwg.cpp). */
class KnotTest : public ::testing::Test
{
  protected:
    KnotTest()
        : cfg_(smallConfig(Protocol::TwoPhase, 8, 2)), net_(cfg_)
    {
        for (NodeId s = 0; s < 5; ++s)
            net_.offerMessage(s, s + 9);
    }

    void
    own(NodeId node, int vc, MsgId owner)
    {
        net_.vc(net_.linkAt(node, 0).id, vc).reserve(owner, 0, false);
    }

    void
    blockOn(CwgTracker &cwg, MsgId blocked, NodeId node, int vc)
    {
        Message &msg = net_.message(blocked);
        cwg.beginEvaluation(msg);
        cwg.noteCandidate(node, 0, vc);
        cwg.onBlocked(msg);
    }

    void
    blockOnMany(CwgTracker &cwg, MsgId blocked,
                const std::vector<std::pair<NodeId, int>> &trios)
    {
        Message &msg = net_.message(blocked);
        cwg.beginEvaluation(msg);
        for (const auto &[node, vc] : trios)
            cwg.noteCandidate(node, 0, vc);
        cwg.onBlocked(msg);
    }

    /** Put TP message @p id in or out of the SR phase, whose scouting
     *  flow aborts on its stall limit (the header's SR bit and flow
     *  mode, as Network::enterSrMode sets them). */
    void
    setSrPhase(MsgId id, bool on)
    {
        HeaderState &hdr = net_.message(id).hdr;
        hdr.sr = on;
        hdr.flow = on ? FlowMode::Scout : FlowMode::Wormhole;
    }

    std::vector<MsgId>
    sortedMembers(const CwgCycle &c) const
    {
        std::vector<MsgId> m = c.members;
        std::sort(m.begin(), m.end());
        return m;
    }

    SimConfig cfg_;
    Network net_;
};

TEST_F(KnotTest, AdaptiveAlternativeOwnedInsideCycleIsAKnot)
{
    // Disagreement, direction 1: member 0 of a mixed cycle waits on an
    // escape trio AND holds an adaptive alternative — but the
    // alternative is owned by msg 2, *inside* the cycle. The OR-wait
    // heuristic would call this benign ("an adaptive alternative
    // exists"); the alternative can never be released by a member of
    // the very knot waiting on it, so this is a true deadlock and must
    // be flagged the moment the ring closes.
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    own(0, 0, 1);          // escape trio, msg 0's primary wait
    own(4, avc, 2);        // adaptive alternative... owned inside
    for (MsgId i = 1; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);

    blockOnMany(cwg, 0, {{0, 0}, {4, avc}});
    for (MsgId i = 1; i < 4; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);

    ASSERT_EQ(cwg.violations().size(), 1u);
    const CwgCycle &c = cwg.violations().front();
    EXPECT_EQ(c.cls, CycleClass::Knot);
    // The closing edge may be reported as the short ring through the
    // alternative (0 -> 2 -> 3 -> 0); the knot verdict reasons over
    // the full closure, which is all four messages either way.
    EXPECT_NE(c.diagnosis.find("knot closure: 4 message(s)"),
              std::string::npos);
    // The whole text is pinned: member order, waited VCs and owners.
    EXPECT_EQ(c.diagnosis,
              "wait cycle (knot, 3 members): msg 3 [node 3, phase WR, "
              "K=0] waits on link 12 vc 2 (adaptive) [kReg=0] owned by "
              "msg 0; msg 0 [node 0, phase WR, K=0] waits on link 16 vc 2 "
              "(adaptive) [kReg=0] owned by msg 2; msg 2 [node 2, phase "
              "WR, K=0] waits on link 8 vc 2 (adaptive) [kReg=0] owned by "
              "msg 3; knot closure: 4 message(s), no exit");
    EXPECT_EQ(cwg.benignCycles(), 0u);
}

TEST_F(KnotTest, PersistentCycleWithExternalExitNeverBecomesAViolation)
{
    // Disagreement, direction 2: a cycle whose closure keeps a live
    // exit (msg 0's alternative is owned by msg 4, which is never
    // blocked) outlives the persistence bound by 50x. The old
    // persistence escalation would have upgraded it to a violation on
    // age alone; the knot check keeps it a *warning* forever — wedged
    // wall-clock time is suspicion, not proof.
    CwgConfig ccfg;
    ccfg.sweepEvery = 4;
    ccfg.persistBound = 40;
    CwgTracker cwg(net_, ccfg);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);
    own(4, avc, 4);  // external owner, progressing

    blockOnMany(cwg, 0, {{0, avc}, {4, avc}});
    for (MsgId i = 1; i < 4; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);

    for (Cycle now = 1; now <= 2000; ++now)
        cwg.onCycleEnd(now);

    EXPECT_TRUE(cwg.violations().empty());
    ASSERT_EQ(cwg.warnings().size(), 1u);
    EXPECT_EQ(cwg.warnings().front().cls, CycleClass::Persistent);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);  // same cycle, not re-counted
}

TEST_F(KnotTest, BlockedClosureMemberWithoutExitMakesAKnot)
{
    // The exit test walks the *closure*, not just the ring: msg 0's
    // alternative is owned by msg 3 — outside the cycle, which under
    // the old heuristic ended the analysis ("alternative exists,
    // benign"). But msg 3 is itself blocked on a trio owned by msg 1,
    // back inside the ring. The closure {0,1,2,3} has no exit: knot.
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 3; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 3);
    own(3, avc, 3);  // msg 0's alternative, owned by msg 3
    own(4, avc, 1);  // what msg 3 waits on — owned inside the ring

    blockOn(cwg, 3, 4, avc);  // block the outsider first: 3 -> 1
    blockOnMany(cwg, 0, {{0, avc}, {3, avc}});
    blockOn(cwg, 1, 1, avc);
    blockOn(cwg, 2, 2, avc);  // closes 0 -> 1 -> 2 -> 0

    ASSERT_EQ(cwg.violations().size(), 1u);
    const CwgCycle &c = cwg.violations().front();
    EXPECT_EQ(c.cls, CycleClass::Knot);
    EXPECT_EQ(sortedMembers(c), (std::vector<MsgId>{0, 1, 2}));
    // The closure the diagnosis reports is wider than the cycle.
    EXPECT_NE(c.diagnosis.find("knot closure: 4 message(s)"),
              std::string::npos);
}

TEST_F(KnotTest, ExitDeepInClosureKeepsTheCycleBenign)
{
    // Mirror image of the previous case: the chain out of the ring now
    // ends at msg 4, which owns a trio but is not blocked. The exit is
    // two wait-hops away from the cycle, and still dissolves it.
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 3; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 3);
    own(3, avc, 3);  // msg 0's alternative, owned by msg 3
    own(4, avc, 4);  // what msg 3 waits on — owned by progressing msg 4

    blockOn(cwg, 3, 4, avc);  // 3 -> 4; msg 4 never blocks
    blockOnMany(cwg, 0, {{0, avc}, {3, avc}});
    blockOn(cwg, 1, 1, avc);
    blockOn(cwg, 2, 2, avc);

    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_EQ(cwg.benignCycles(), 1u);
}

TEST_F(KnotTest, SweepPromotesBenignCycleWhenItsExitEvaporates)
{
    // A cycle can degenerate into a knot with zero edge churn: msg 2's
    // exit here is its protocol phase (a TP header in the SR phase
    // aborts on its stall limit), so the ring starts benign. The phase
    // bit then flips with no hook traffic at all — only the Tarjan
    // sweep can observe the knot condition start to hold, and its
    // verdict must agree with what insertion-time classification would
    // have said: same members, now a violation.
    CwgConfig ccfg;
    ccfg.sweepEvery = 4;
    CwgTracker cwg(net_, ccfg);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);

    setSrPhase(2, true);  // abort-on-stall exit
    for (MsgId i = 0; i < 4; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);
    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_EQ(cwg.benignCycles(), 1u);

    cwg.onCycleEnd(4);  // sweep with the exit still live: no change
    EXPECT_TRUE(cwg.violations().empty());

    setSrPhase(2, false);  // the exit evaporates silently
    cwg.onCycleEnd(8);

    ASSERT_EQ(cwg.violations().size(), 1u);
    const CwgCycle &c = cwg.violations().front();
    EXPECT_EQ(c.cls, CycleClass::Knot);
    EXPECT_EQ(sortedMembers(c), (std::vector<MsgId>{0, 1, 2, 3}));
    EXPECT_EQ(cwg.cyclesDetected(), 1u);  // promoted, not re-detected

    // Agreement the other way: further sweeps do not double-report.
    cwg.onCycleEnd(12);
    cwg.onCycleEnd(16);
    EXPECT_EQ(cwg.violations().size(), 1u);
}

TEST_F(KnotTest, FreedCommittedCandidateCountsAsAnExit)
{
    // Exit condition (b) of the header doc: msg 0 committed two
    // candidates (both owned by msg 1). Releasing one of them does not
    // break the cycle — the 0 -> 1 edge survives on the other trio —
    // but the live wait count drops below the committed count, and
    // that freed candidate is a way out. Re-committing a fresh
    // evaluation with only the held trio erases the evidence, and the
    // sweep must then promote the (unchanged) cycle to a knot.
    CwgConfig ccfg;
    ccfg.sweepEvery = 4;
    CwgTracker cwg(net_, ccfg);
    const int avc = net_.escapeVcCount();
    own(0, avc, 1);  // candidate A of msg 0
    own(1, avc, 1);  // candidate B of msg 0
    own(2, avc, 0);  // msg 1's wait

    setSrPhase(1, true);  // keep formation benign
    blockOnMany(cwg, 0, {{0, avc}, {1, avc}});
    blockOn(cwg, 1, 2, avc);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_TRUE(cwg.violations().empty());
    setSrPhase(1, false);

    // Candidate B is released: waits drop 2 -> 1 under committed 2.
    net_.vc(net_.linkAt(1, 0).id, avc).owner = invalidMsg;
    cwg.onVcReleased(net_.linkAt(1, 0).id, avc);
    EXPECT_EQ(cwg.waitCount(0), 1u);
    cwg.onCycleEnd(4);
    EXPECT_TRUE(cwg.violations().empty());  // freed candidate = exit

    // A fresh blocked evaluation commits the narrowed candidate set.
    blockOn(cwg, 0, 0, avc);
    cwg.onCycleEnd(8);
    ASSERT_EQ(cwg.violations().size(), 1u);
    EXPECT_EQ(cwg.violations().front().cls, CycleClass::Knot);
    EXPECT_EQ(sortedMembers(cwg.violations().front()),
              (std::vector<MsgId>{0, 1}));
}

TEST_F(KnotTest, UnknownCandidateSetIsConservativelyAnExit)
{
    // A message that blocked without noting any candidate (a
    // stall-limit wait, e.g. a scout gap) has an unknown candidate
    // set; the knot check must not call deadlock on a closure it
    // cannot see. Msg 3 blocks candidate-free but sits in the closure
    // via msg 0's alternative — the cycle stays benign.
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 3; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 3);
    own(3, avc, 3);

    Message &m3 = net_.message(3);
    cwg.beginEvaluation(m3);
    cwg.onBlocked(m3);  // blocked, zero candidates noted

    blockOnMany(cwg, 0, {{0, avc}, {3, avc}});
    blockOn(cwg, 1, 1, avc);
    blockOn(cwg, 2, 2, avc);

    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_EQ(cwg.benignCycles(), 1u);
}

TEST_F(KnotTest, ClosureFollowsOutEdgeInsertionOrder)
{
    // Msg 1 waits on trios of 0, 2 and 3, and 2 and 3 wait back on 0;
    // 0 -> 1 then closes the knot {0, 1}. The closure walk pops msg 1
    // first and pushes its two unseen successors in the order its
    // out-edges were inserted, so that order decides the closure order
    // (the heal engine's victim pool) and is pinned here.
    CwgTracker cwg(net_);
    cwg.armRecovery();
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, i);
    blockOn(cwg, 2, 0, avc);
    blockOn(cwg, 3, 0, avc);
    blockOnMany(cwg, 1, {{0, avc}, {2, avc}, {3, avc}});
    blockOn(cwg, 0, 1, avc);

    const std::vector<verify::PendingKnot> knots = cwg.takePendingKnots();
    ASSERT_EQ(knots.size(), 1u);
    EXPECT_EQ(knots.front().cycle.members, (std::vector<MsgId>{0, 1}));
    EXPECT_EQ(knots.front().closure, (std::vector<MsgId>{1, 2, 3, 0}));
}

} // namespace
} // namespace tpnet
