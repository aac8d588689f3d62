/**
 * @file
 * Fine-grained flow control semantics (paper Sections 2.2 and 5.0):
 * CMU counter dynamics, data gating at K, PCS source holds,
 * backtracking with data committed to the network, and the
 * ack-propagation stop rule at the first data flit.
 */

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;

/** Locate the message's reserved trio at hop @p idx. */
VcState &
hopVc(Network &net, const Message &msg, int idx)
{
    const PathHop &hop = msg.path[static_cast<std::size_t>(idx)];
    return net.vc(hop.link, hop.vc);
}

TEST(FlowSemantics, SourceGateOpensAfterKAcks)
{
    // SR(K = 3): the source may not inject data until three positive
    // acknowledgments arrived (paper: first data flit advances when the
    // received-ack count equals K).
    SimConfig cfg = smallConfig(Protocol::Scouting, 16, 2);
    cfg.scoutK = 3;
    Network net(cfg);
    net.offerMessage(0, 8);  // l = 8 along dim 0
    Message &msg = net.message(0);
    for (int c = 0; c < 5; ++c) {
        net.step();
        EXPECT_EQ(msg.injectedFlits, 0) << "cycle " << c;
        EXPECT_LT(msg.srcCounter, 3);
    }
    // By cycle 2K = 6 the third ack has arrived; data follows.
    for (int c = 5; c < 9; ++c)
        net.step();
    EXPECT_GE(msg.srcCounter, 3);
    EXPECT_GT(msg.injectedFlits, 0);
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, PcsHoldsAllDataUntilSetupAck)
{
    SimConfig cfg = smallConfig(Protocol::Pcs, 16, 2);
    Network net(cfg);
    net.offerMessage(0, 6);  // l = 6: setup ack returns at ~2l = 12
    Message &msg = net.message(0);
    for (int c = 0; c < 11; ++c) {
        net.step();
        EXPECT_TRUE(msg.srcHold) << "cycle " << c;
        EXPECT_EQ(msg.injectedFlits, 0) << "cycle " << c;
    }
    for (int c = 11; c < 15; ++c)
        net.step();
    EXPECT_FALSE(msg.srcHold);
    EXPECT_GT(msg.injectedFlits, 0);
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, CountersProgramKIntoEveryTrio)
{
    SimConfig cfg = smallConfig(Protocol::Scouting, 16, 2);
    cfg.scoutK = 2;
    Network net(cfg);
    net.offerMessage(0, 6);
    Message &msg = net.message(0);
    for (int c = 0; c < 4; ++c)
        net.step();
    ASSERT_GE(msg.path.size(), 3u);
    for (std::size_t i = 0; i + 1 < msg.path.size(); ++i) {
        EXPECT_EQ(hopVc(net, msg, static_cast<int>(i)).kReg, 2)
            << "hop " << i;
    }
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, WormholeTriosAreKZero)
{
    SimConfig cfg = smallConfig(Protocol::Duato, 16, 2);
    Network net(cfg);
    net.offerMessage(0, 5);
    Message &msg = net.message(0);
    for (int c = 0; c < 3; ++c)
        net.step();
    ASSERT_GE(msg.path.size(), 2u);
    EXPECT_EQ(hopVc(net, msg, 0).kReg, 0);
    EXPECT_TRUE(hopVc(net, msg, 0).dataEnabled());
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, AckStopsAtLeadDataFlit)
{
    // "The RCU does not propagate the acknowledgment beyond the first
    // data flit" — hops behind the leading data flit keep counters at
    // exactly K (gates opened once, then no more ack traffic arrives).
    SimConfig cfg = smallConfig(Protocol::Scouting, 16, 2);
    cfg.scoutK = 1;
    cfg.msgLength = 32;
    Network net(cfg);
    net.offerMessage(0, 7 + 16 * 7);  // l = 14
    Message &msg = net.message(0);
    // Step long enough for data to be strung out mid-path but not yet
    // delivered.
    for (int c = 0; c < 12; ++c)
        net.step();
    ASSERT_GT(msg.leadHop, 1);
    ASSERT_LT(static_cast<std::size_t>(msg.leadHop), msg.path.size());
    for (int i = 0; i < msg.leadHop - 1; ++i) {
        EXPECT_LE(hopVc(net, msg, i).counter, 1 + 1)
            << "hop " << i << " accumulated acks beyond the lead";
    }
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, BacktrackWithDataLimitedToLeadFlit)
{
    // Conservative TP (K = 3) with data already committed: the probe
    // may backtrack, but never past the node where the first data flit
    // resides — the message still delivers around the fault.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 16, 2);
    cfg.scoutK = 3;
    Network net(cfg);
    // Fault field ahead, beyond the scouting horizon so data is
    // already flowing when the probe discovers it.
    net.failNode(9);
    net.failNode(9 + 16);
    net.failNode(9 + 16 * 15);
    net.setMeasuring(true);
    net.offerMessage(0, 11);
    Message *msg = net.findMessage(0);
    ASSERT_NE(msg, nullptr);
    int max_lead_seen = -1;
    for (int c = 0; c < 100000 && net.activeMessages() > 0; ++c) {
        net.step();
        Message *m = net.findMessage(0);
        if (!m)
            break;
        if (m->leadHop >= 0 && m->leadHop != leadEjected) {
            max_lead_seen = std::max(max_lead_seen, m->leadHop);
            // Invariant: the probe's frontier never retreats below the
            // leading data flit's hop.
            EXPECT_GE(static_cast<int>(m->path.size()), m->leadHop)
                << "cycle " << c;
        }
    }
    EXPECT_EQ(net.counters().delivered, 1u);
    EXPECT_GT(max_lead_seen, 0);
}

TEST(FlowSemantics, DetourHoldFreezesDataUntilRelease)
{
    // Aggressive TP: on detour entry the gate in front of the leading
    // data flit closes; arrivedFlits must not advance while the probe
    // is in detour mode.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 16, 2);
    Network net(cfg);
    net.failNode(5);
    net.failNode(5 + 16);
    net.failNode(5 + 16 * 15);
    net.setMeasuring(true);
    net.offerMessage(0, 7);
    bool saw_detour = false;
    for (int c = 0; c < 100000 && net.activeMessages() > 0; ++c) {
        net.step();
        Message *m = net.findMessage(0);
        if (m && m->hdr.detour) {
            saw_detour = true;
            EXPECT_EQ(m->arrivedFlits, 0);
        }
    }
    EXPECT_TRUE(saw_detour);
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(FlowSemantics, TailReleasesTriosBehindIt)
{
    SimConfig cfg = smallConfig(Protocol::DimOrder, 16, 2);
    cfg.msgLength = 4;  // short message: tail inside the network while
                        // the path is longer than the worm
    Network net(cfg);
    net.offerMessage(0, 8);
    Message &msg = net.message(0);
    // After the tail passed the early hops, their trios must be free.
    for (int c = 0; c < 9; ++c)
        net.step();
    ASSERT_GE(msg.path.size(), 6u);
    EXPECT_TRUE(hopVc(net, msg, 0).free());
    EXPECT_TRUE(hopVc(net, msg, 1).free());
    EXPECT_TRUE(runToQuiescent(net));
}

TEST(FlowSemantics, ReleasedTriosImmediatelyReusable)
{
    SimConfig cfg = smallConfig(Protocol::DimOrder, 16, 2);
    cfg.msgLength = 4;
    Network net(cfg);
    net.setMeasuring(true);
    // Back-to-back short messages over the same route: the second can
    // only proceed by re-reserving the trios the first releases.
    net.offerMessage(0, 6);
    net.offerMessage(0, 6);
    net.offerMessage(0, 6);
    EXPECT_TRUE(runToQuiescent(net, 2000));
    EXPECT_EQ(net.counters().delivered, 3u);
}

TEST(FlowSemantics, ScoutCounterNeverExceedsPathAcks)
{
    // Counters count acknowledgments; with l probe advances there are
    // at most l positive acks, so no counter can exceed l.
    SimConfig cfg = smallConfig(Protocol::Scouting, 16, 2);
    cfg.scoutK = 3;
    Network net(cfg);
    net.offerMessage(0, 5);
    for (int c = 0; c < 30 && net.activeMessages() > 0; ++c) {
        net.step();
        Message *m = net.findMessage(0);
        if (!m)
            break;
        for (std::size_t i = 0; i < m->path.size(); ++i) {
            EXPECT_LE(hopVc(net, *m, static_cast<int>(i)).counter, 5);
        }
        EXPECT_LE(m->srcCounter, 5);
    }
}

} // namespace
} // namespace tpnet
