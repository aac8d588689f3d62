/**
 * @file
 * Channel-wait-for-graph analyzer: hand-constructed wait cycles with
 * known classifications, edge-lifecycle bookkeeping, multi-hop cycle
 * closure and the rejected-edge rule of the incremental search,
 * persistence warnings, and the zero-perturbation guarantee (golden
 * digests identical with the tracker on).
 * Knot-vs-heuristic disagreement cases live in test_knot.cpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;
using verify::CwgConfig;
using verify::CwgCycle;
using verify::CwgTracker;
using verify::CycleClass;

/**
 * A quiet network plus a tracker driven directly through its hook
 * protocol, so wait graphs with known shapes can be built by hand.
 * Trio (node i, port 0, vc) stands in for "the channel msg i+1 holds".
 */
class CwgTest : public ::testing::Test
{
  protected:
    explicit CwgTest(const SimConfig &cfg = smallConfig(Protocol::TwoPhase))
        : cfg_(cfg), net_(cfg_)
    {
        // Real messages so classification can inspect phase/exits.
        // Msg 4 is never blocked — it serves as an external owner whose
        // progress gives a cycle an exit.
        for (NodeId s = 0; s < 5; ++s)
            net_.offerMessage(s, s + 9);
    }

    /** Reserve trio (node, port 0, vc) for @p owner. */
    void
    own(NodeId node, int vc, MsgId owner)
    {
        net_.vc(net_.linkAt(node, 0).id, vc).reserve(owner, 0, false);
    }

    /** One full blocked RCU evaluation of @p blocked noting one trio. */
    void
    blockOn(CwgTracker &cwg, MsgId blocked, NodeId node, int vc)
    {
        Message &msg = net_.message(blocked);
        cwg.beginEvaluation(msg);
        cwg.noteCandidate(node, 0, vc);
        cwg.onBlocked(msg);
    }

    /** A blocked evaluation noting several candidate trios. */
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

    /** Build the 4-message ring: msg i waits on a trio of msg i+1. */
    void
    buildRing(CwgTracker &cwg, int vc)
    {
        for (MsgId i = 0; i < 4; ++i)
            own(static_cast<NodeId>(i), vc, (i + 1) % 4);
        for (MsgId i = 0; i < 4; ++i)
            blockOn(cwg, i, static_cast<NodeId>(i), vc);
    }

    SimConfig cfg_;
    Network net_;
};

TEST_F(CwgTest, EscapeClassCycleIsAViolation)
{
    // Four circuits each waiting on the next one's *escape* trio: the
    // acyclic escape order is broken — Theorem 3's premise fails, and
    // the analyzer must say so the moment the fourth edge closes the
    // ring.
    CwgTracker cwg(net_);
    buildRing(cwg, 0);

    ASSERT_EQ(cwg.violations().size(), 1u);
    const CwgCycle &c = cwg.violations().front();
    EXPECT_EQ(c.cls, CycleClass::EscapeCycle);
    EXPECT_EQ(c.members.size(), 4u);
    EXPECT_NE(c.diagnosis.find("escape-cycle"), std::string::npos);
    EXPECT_NE(c.diagnosis.find("escape class 0"), std::string::npos);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_EQ(cwg.benignCycles(), 0u);
}

/** The same hand-built graphs over standalone SR(3). */
class CwgScoutTest : public CwgTest
{
  protected:
    CwgScoutTest() : CwgTest(config()) {}

    static SimConfig
    config()
    {
        SimConfig cfg = smallConfig(Protocol::Scouting);
        cfg.scoutK = 3;
        return cfg;
    }
};

TEST_F(CwgScoutTest, CycleReportLabelsScoutingMembersSr)
{
    // An SR(K) message scouts from its first cycle (flow Scout) and
    // never sets TP's SR bit; its cycle report still says phase SR.
    CwgTracker cwg(net_);
    buildRing(cwg, 0);

    ASSERT_EQ(cwg.violations().size(), 1u);
    EXPECT_EQ(cwg.violations().front().diagnosis,
              "wait cycle (escape-cycle, 4 members): "
              "msg 3 [node 3, phase SR, K=3] waits on link 12 vc 0 "
              "(escape class 0) [kReg=0] owned by msg 0; "
              "msg 0 [node 0, phase SR, K=3] waits on link 0 vc 0 "
              "(escape class 0) [kReg=0] owned by msg 1; "
              "msg 1 [node 1, phase SR, K=3] waits on link 4 vc 0 "
              "(escape class 0) [kReg=0] owned by msg 2; "
              "msg 2 [node 2, phase SR, K=3] waits on link 8 vc 0 "
              "(escape class 0) [kReg=0] owned by msg 3");
}

TEST_F(CwgTest, AdaptiveCycleWithExternalExitIsBenign)
{
    // The ring over adaptive lanes, but one member also holds a
    // candidate owned by msg 4 — which is not blocked, so its closure
    // has an exit: exactly the OR-wait transient Theorem 3 argues
    // resolves itself. Detected, diagnosed, NOT a violation.
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);
    own(4, avc, 4);  // external owner, never blocked
    for (MsgId i = 1; i < 4; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);
    blockOnMany(cwg, 0, {{0, avc}, {4, avc}});

    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_EQ(cwg.benignCycles(), 1u);
    EXPECT_NE(cwg.lastCycleDiagnosis().find("benign-transient"),
              std::string::npos);
    EXPECT_NE(cwg.lastCycleDiagnosis().find("(adaptive)"),
              std::string::npos);
}

TEST_F(CwgTest, MixedCycleWithLiveAdaptiveAlternativeIsBenign)
{
    // One member of the ring waits on an escape trio, the rest on
    // adaptive lanes, and one member holds an adaptive alternative
    // owned by a progressing message outside the cycle. A blocked
    // header's wait is an OR across its candidates, so the closure has
    // an exit: the transient the theorem permits. (The fault-free
    // 16-ary TP bench produces exactly these under saturation — they
    // must not panic the analyzer.)
    CwgTracker cwg(net_);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), i == 0 ? 0 : avc, (i + 1) % 4);
    own(4, avc, 4);  // live adaptive alternative, owner progressing
    blockOn(cwg, 0, 0, 0);
    for (MsgId i = 1; i < 3; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);
    blockOnMany(cwg, 3, {{3, avc}, {4, avc}});

    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_EQ(cwg.benignCycles(), 1u);
}

TEST_F(CwgTest, BenignCyclePersistingPastBoundWarns)
{
    // A benign cycle (external exit keeps it out of knot territory)
    // that outlives the persistence bound is flagged by the sweep as a
    // Persistent *warning* — suspicious longevity, not a deadlock, so
    // the violation list stays empty.
    CwgConfig cfg;
    cfg.sweepEvery = 4;
    cfg.persistBound = 40;
    CwgTracker cwg(net_, cfg);
    const int avc = net_.escapeVcCount();
    for (MsgId i = 0; i < 4; ++i)
        own(static_cast<NodeId>(i), avc, (i + 1) % 4);
    own(4, avc, 4);
    for (MsgId i = 1; i < 4; ++i)
        blockOn(cwg, i, static_cast<NodeId>(i), avc);
    blockOnMany(cwg, 0, {{0, avc}, {4, avc}});
    EXPECT_TRUE(cwg.violations().empty());
    EXPECT_TRUE(cwg.warnings().empty());

    for (Cycle now = 1; now <= 100; ++now)
        cwg.onCycleEnd(now);

    EXPECT_TRUE(cwg.violations().empty());
    ASSERT_EQ(cwg.warnings().size(), 1u);
    EXPECT_EQ(cwg.warnings().front().cls, CycleClass::Persistent);
    EXPECT_NE(cwg.warnings().front().diagnosis.find("persistent"),
              std::string::npos);

    // The warning is recorded once, not on every sweep.
    for (Cycle now = 101; now <= 200; ++now)
        cwg.onCycleEnd(now);
    EXPECT_EQ(cwg.warnings().size(), 1u);
}

TEST_F(CwgTest, WaitEdgeLifecycle)
{
    CwgTracker cwg(net_);
    const int vc = net_.escapeVcCount();
    own(1, vc, 1);

    blockOn(cwg, 0, 1, vc);
    EXPECT_EQ(cwg.waitCount(0), 1u);
    EXPECT_EQ(cwg.edgeCount(), 1u);
    EXPECT_NE(cwg.describeWaits(0).find("owned by msg 1"),
              std::string::npos);

    // Re-committing the identical wait set inserts nothing new.
    blockOn(cwg, 0, 1, vc);
    EXPECT_EQ(cwg.edgeCount(), 1u);

    Message &m0 = net_.message(0);
    cwg.onGranted(m0);
    EXPECT_EQ(cwg.waitCount(0), 0u);
    EXPECT_EQ(cwg.edgeCount(), 0u);

    blockOn(cwg, 0, 1, vc);
    cwg.onVcReleased(net_.linkAt(1, 0).id, vc);
    EXPECT_EQ(cwg.edgeCount(), 0u);

    blockOn(cwg, 0, 1, vc);
    cwg.onRetreat(m0);
    EXPECT_EQ(cwg.edgeCount(), 0u);

    blockOn(cwg, 0, 1, vc);
    cwg.onMessageGone(0);
    EXPECT_EQ(cwg.edgeCount(), 0u);
    EXPECT_EQ(cwg.describeWaits(0), "");
    EXPECT_EQ(cwg.cyclesDetected(), 0u);
}

TEST_F(CwgTest, SelfWaitsAndFreeTriosAreNotEdges)
{
    // A scout-gap stall waits on the message's own trio; a candidate
    // that went free between note and commit is not a wait at all.
    CwgTracker cwg(net_);
    const int vc = net_.escapeVcCount();
    own(2, vc, 0);  // msg 0's own trio

    Message &m0 = net_.message(0);
    cwg.beginEvaluation(m0);
    cwg.noteCandidate(2, 0, vc);      // self-owned
    cwg.noteCandidate(3, 0, vc);      // free
    cwg.onBlocked(m0);

    EXPECT_EQ(cwg.waitCount(0), 0u);
    EXPECT_EQ(cwg.edgeCount(), 0u);
}

TEST_F(CwgTest, CycleClosingThroughReorderedRegionIsDetected)
{
    // Insertion order 0->1, 2->0, 1->2: no edge but the last touches a
    // cycle, and the last one is only found by searching two hops
    // (2 -> 0 -> 1) from its head back to its tail.
    CwgTracker cwg(net_);
    const int vc = net_.escapeVcCount();
    own(1, vc, 1);
    own(2, vc, 0);
    own(3, vc, 2);
    own(4, vc, 4);  // external exit keeps the triangle benign

    blockOn(cwg, 0, 1, vc);  // 0 -> 1
    blockOn(cwg, 2, 2, vc);  // 2 -> 0
    EXPECT_EQ(cwg.cyclesDetected(), 0u);
    blockOnMany(cwg, 1, {{3, vc}, {4, vc}});  // 1 -> 2 closes the ring

    EXPECT_EQ(cwg.cyclesDetected(), 1u);
    EXPECT_EQ(cwg.violations().size(), 0u);  // closure exit via msg 4
    EXPECT_EQ(cwg.benignCycles(), 1u);
}

TEST_F(CwgTest, CycleThroughARejectedEdgeWaitsForTheSweep)
{
    // An edge that closed a cycle stays out of the acyclic subgraph the
    // insertion search walks. A later edge whose cycle runs through it
    // is therefore not reported on insertion; the next sweep over the
    // true graph reports it. Searching the true graph on insertion
    // instead would report it early and change campaign verdicts.
    CwgConfig ccfg;
    ccfg.sweepEvery = 4;
    CwgTracker cwg(net_, ccfg);
    const int vc = net_.escapeVcCount();
    own(0, vc, 0);
    own(1, vc, 1);
    own(2, vc, 2);
    own(4, vc, 4);  // external exit keeps every cycle benign

    blockOn(cwg, 0, 1, vc);                   // 0 -> 1
    blockOnMany(cwg, 1, {{0, vc}, {4, vc}});  // 1 -> 0 closes, rejected
    EXPECT_EQ(cwg.cyclesDetected(), 1u);

    cwg.onGranted(net_.message(0));  // 0 -> 1 retracts; 1 -> 0 stays
    blockOn(cwg, 0, 2, vc);          // 0 -> 2
    blockOn(cwg, 2, 1, vc);          // 2 -> 1 closes 2 -> 1 -> 0 -> 2
    EXPECT_EQ(cwg.edgeCount(), 4u);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);  // not seen on insertion

    cwg.onCycleEnd(4);
    EXPECT_EQ(cwg.cyclesDetected(), 2u);
    EXPECT_EQ(cwg.benignCycles(), 2u);
}

TEST_F(CwgTest, DissolvedCycleIsReReportedWhenItReforms)
{
    // Benign cycles that resolve stop being tracked; the same member
    // set forming a cycle again must be reported again (it is new
    // evidence, not a duplicate).
    CwgConfig ccfg;
    ccfg.sweepEvery = 4;
    CwgTracker cwg(net_, ccfg);
    const int vc = net_.escapeVcCount();
    own(0, vc, 1);
    own(1, vc, 0);
    own(4, vc, 4);  // external exit keeps the pair benign

    blockOnMany(cwg, 0, {{0, vc}, {4, vc}});
    blockOn(cwg, 1, 1, vc);
    EXPECT_EQ(cwg.cyclesDetected(), 1u);

    cwg.onGranted(net_.message(1));  // cycle dissolves
    cwg.onCycleEnd(4);               // sweep prunes the tracking entry

    blockOn(cwg, 1, 1, vc);          // and it re-forms
    EXPECT_EQ(cwg.cyclesDetected(), 2u);
    EXPECT_EQ(cwg.benignCycles(), 2u);
}

TEST(CwgLive, DuatoEscapeRepollNeverCyclesThroughEscape)
{
    // Regression for the audited escape-selection path: a blocked
    // header re-polls the escape class every cycle (phaseRcu rotates it
    // back through the queue), so a freed escape trio is always seen.
    // With the analyzer armed and the panic watchdog live, any escape
    // cycle or stale-wait wedge would abort the run.
    for (Protocol p : {Protocol::Duato, Protocol::TwoPhase}) {
        SimConfig cfg = smallConfig(p, 8, 2);
        cfg.load = 0.25;
        cfg.msgLength = 16;
        cfg.seed = 7;
        cfg.verifyCwg = true;
        Network net(cfg);
        Injector inj(net);
        for (int c = 0; c < 4000; ++c) {
            inj.step();
            net.step();
        }
        inj.stop();
        EXPECT_TRUE(runToQuiescent(net, 100000));
        ASSERT_NE(net.cwg(), nullptr);
        EXPECT_TRUE(net.cwg()->violations().empty())
            << net.cwg()->violations().front().diagnosis;
    }
}

TEST(CwgLive, ReportsArePinned)
{
    // Everything the tracker reports on a loaded, faulty TP run, folded
    // into one FNV-1a digest: the counts, the edge total and the last
    // diagnosis every cycle, and every live message's wait description
    // (in id order) every 64 cycles. A refactor of the tracker's tables
    // must reproduce it bit for bit.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 16;
    cfg.load = 0.40;
    cfg.staticNodeFaults = 6;
    cfg.seed = 7;
    cfg.verifyCwg = true;
    Network net(cfg);
    Injector inj(net);
    const verify::CwgTracker &cwg = *net.cwg();

    std::uint64_t h = 14695981039346656037ull;
    const auto foldByte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    const auto foldNum = [&foldByte](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            foldByte(static_cast<unsigned char>(v >> (8 * i)));
    };
    const auto foldStr = [&foldByte, &foldNum](const std::string &s) {
        foldNum(s.size());
        for (const char ch : s)
            foldByte(static_cast<unsigned char>(ch));
    };
    std::size_t maxEdges = 0;
    for (int c = 0; c < 4000; ++c) {
        inj.step();
        net.step();
        foldNum(cwg.cyclesDetected());
        foldNum(cwg.benignCycles());
        foldNum(cwg.edgeCount());
        foldStr(cwg.lastCycleDiagnosis());
        maxEdges = std::max(maxEdges, cwg.edgeCount());
        if (c % 64 == 0) {
            net.messageStore().forEach([&](const Message &m) {
                foldNum(static_cast<std::uint64_t>(m.id));
                foldStr(cwg.describeWaits(m.id));
            });
        }
    }
    EXPECT_GT(cwg.cyclesDetected(), 0u);
    EXPECT_EQ(cwg.cyclesDetected(), 11u);
    EXPECT_EQ(cwg.benignCycles(), 11u);
    EXPECT_EQ(maxEdges, 101u);
    EXPECT_EQ(h, 0x6ad4da67779f922eull) << std::hex << " 0x" << h;
}

TEST(CwgLive, GoldenDigestsIdenticalWithTrackerArmed)
{
    // The tracker is read-only with respect to the simulation: every
    // golden scenario must produce a bit-identical trace with it on.
    const std::vector<obs::RecordSpec> specs =
        obs::goldenSpecs(20260806);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(obs::goldenSpecName(i));
        obs::RecordSpec armed = specs[i];
        armed.cfg.verifyCwg = true;
        const obs::TraceRecorder off = obs::recordRun(specs[i], 1);
        const obs::TraceRecorder on = obs::recordRun(armed, 1);
        EXPECT_EQ(off.digest(), on.digest());
        EXPECT_EQ(off.size(), on.size());
    }
}

TEST(CwgLive, ConfigSummaryMarksTheAnalyzer)
{
    SimConfig cfg = smallConfig();
    EXPECT_EQ(cfg.summary().find("CWG"), std::string::npos);
    cfg.verifyCwg = true;
    EXPECT_NE(cfg.summary().find("CWG"), std::string::npos);
}

} // namespace
} // namespace tpnet
