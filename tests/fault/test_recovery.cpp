/** @file Dynamic-fault recovery: kill flits, tail acks, retransmission. */

#include <gtest/gtest.h>

#include "core/validator.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;

/** Start a long message, fail a node on its path mid-flight. */
class RecoveryTest : public ::testing::Test
{
  protected:
    /** @return counters after the dust settles. */
    Counters
    interruptedTransfer(bool tail_ack)
    {
        SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
        cfg.msgLength = 64;
        cfg.tailAck = tail_ack;
        Network net(cfg);
        net.setMeasuring(true);
        net.offerMessage(0, 2 + 8 * 2);  // l = 4, multi-hop circuit
        // Let the worm stretch across the path, then cut it mid-path.
        for (int c = 0; c < 8; ++c)
            net.step();
        EXPECT_GT(net.activeMessages(), 0u);
        Message *msg = net.findMessage(0);
        EXPECT_NE(msg, nullptr);
        EXPECT_GE(msg->path.size(), 3u);
        const NodeId victim =
            net.link(msg->path[1].link).dst;  // second hop's router
        net.failNode(victim);
        runToQuiescent(net, 100000);
        return net.counters();
    }
};

TEST_F(RecoveryTest, WithoutTailAckMessageIsLost)
{
    // Section 2.4: without retransmission there is a (low) probability
    // of losing a message interrupted by a dynamic fault. Here the cut
    // is certain, so the message must be counted lost, resources freed.
    const Counters c = interruptedTransfer(false);
    EXPECT_EQ(c.delivered, 0u);
    EXPECT_EQ(c.lost, 1u);
    EXPECT_GT(c.killFlits, 0u);
}

TEST_F(RecoveryTest, WithTailAckMessageRetransmitted)
{
    // With tail acknowledgments the source retransmits; 0 -> 6 stays
    // reachable through the healthy side of the ring.
    const Counters c = interruptedTransfer(true);
    EXPECT_EQ(c.delivered, 1u);
    EXPECT_EQ(c.lost, 0u);
    EXPECT_GE(c.retransmits, 1u);
    EXPECT_GT(c.msgAcks, 0u);
}

TEST(Recovery, TailAckHoldsPathUntilAcknowledged)
{
    // With TAck the trios release only after the destination's message
    // acknowledgment walks home; the MsgAck counter must equal the
    // delivered count.
    SimConfig cfg = smallConfig(Protocol::TwoPhase);
    cfg.tailAck = true;
    Network net(cfg);
    net.setMeasuring(true);
    net.offerMessage(0, 5);
    net.offerMessage(10, 30);
    EXPECT_TRUE(runToQuiescent(net, 50000));
    const Counters &c = net.counters();
    EXPECT_EQ(c.delivered, 2u);
    EXPECT_EQ(c.msgAcks, 2u);
}

TEST(Recovery, KillFlitsCountOnePerHopAWalkReleases)
{
    // Counters::killFlits counts the hops kill walks release; hops
    // released synchronously at the break are not counted.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 64;
    // A 4-hop circuit whose probe has reached the destination; no data
    // has released a hop yet.
    const auto circuit = [](Network &net) -> Message & {
        net.offerMessage(0, 2 + 8 * 2);
        Message &msg = net.message(0);
        for (int c = 0; c < 100 && !msg.headerAtDest; ++c)
            net.step();
        EXPECT_TRUE(msg.headerAtDest);
        EXPECT_EQ(msg.path.size(), 4u);
        return msg;
    };
    {
        // A link failed mid-circuit: hop 1 goes at the break, the up
        // walk releases hop 0 and the down walk hops 2 and 3.
        Network net(cfg);
        const Link &lk = net.link(circuit(net).path[1].link);
        net.failLink(lk.src, lk.srcPort);
        EXPECT_TRUE(runToQuiescent(net, 100000));
        EXPECT_EQ(net.counters().killFlits, 3u);
    }
    {
        // A kill with no broken hop (as for a salvaged header): the
        // walk starts at the frontier and releases all four hops.
        Network net(cfg);
        net.killMessage(circuit(net));
        EXPECT_TRUE(runToQuiescent(net, 100000));
        EXPECT_EQ(net.counters().killFlits, 4u);
    }
}

TEST(Recovery, DynamicFaultProcessInjectsFaults)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.watchdog = 0;  // long idle gaps are fine here
    Network net(cfg);
    net.setDynamicFaultProcess(0.05, 4);
    for (int c = 0; c < 2000; ++c)
        net.step();
    EXPECT_EQ(net.counters().dynamicFaults, 4u);
    EXPECT_EQ(net.healthyNodes().size(),
              static_cast<std::size_t>(net.topo().nodes() - 4));
}

TEST(Recovery, DynamicFaultsUnderTrafficNoWedge)
{
    // Messages interrupted by random failures must always resolve:
    // delivered, retransmitted-and-delivered, dropped, or lost — never
    // wedged (the watchdog panics on a wedge).
    for (bool tack : {false, true}) {
        SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
        cfg.msgLength = 16;
        cfg.load = 0.15;
        cfg.tailAck = tack;
        cfg.seed = 21;
        Network net(cfg);
        Injector inj(net);
        net.setDynamicFaultProcess(0.002, 6);
        net.setMeasuring(true);
        for (int c = 0; c < 4000; ++c) {
            inj.step();
            net.step();
        }
        inj.stop();
        EXPECT_TRUE(runToQuiescent(net, 200000)) << "tack " << tack;
        const Counters &c = net.counters();
        EXPECT_EQ(c.delivered + c.dropped + c.lost, c.generated);
    }
}

TEST(Recovery, AbortedSetupRetriesAndSucceeds)
{
    // A destination reachable only through one narrow gap forces search
    // failures and retries under MB-m with a tiny misroute budget.
    SimConfig cfg = smallConfig(Protocol::MBm, 8, 2);
    cfg.misrouteLimit = 0;
    cfg.maxRetries = 5;
    Network net(cfg);
    // Cut the straight dim-0 corridor; leave the dim-1 route open.
    net.failNode(2);
    net.setMeasuring(true);
    net.offerMessage(0, 4);
    EXPECT_TRUE(runToQuiescent(net, 200000));
    EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Recovery, MessagesToDynamicallyFailedDestination)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    Network net(cfg);
    net.setMeasuring(true);
    net.offerMessage(0, 4);
    net.step();
    net.step();
    net.failNode(4);  // destination dies mid-setup
    EXPECT_TRUE(runToQuiescent(net, 200000));
    const Counters &c = net.counters();
    EXPECT_EQ(c.delivered, 0u);
    EXPECT_EQ(c.dropped + c.lost, 1u);
}

TEST(Recovery, KillReleasesEverythingForReuse)
{
    // After a kill, the same channels must be reusable by new traffic.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 64;
    Network net(cfg);
    net.offerMessage(0, 6);
    for (int c = 0; c < 12; ++c)
        net.step();
    net.failNode(3);
    EXPECT_TRUE(runToQuiescent(net, 100000));
    // New message over the surviving region.
    net.setMeasuring(true);
    net.offerMessage(0, 6);
    EXPECT_TRUE(runToQuiescent(net, 100000));
    EXPECT_EQ(net.counters().measuredDelivered, 1u);
}

TEST(Recovery, RetryExhaustionDeclaresUndeliverableExactlyOnce)
{
    // An unreachable (but healthy) destination burns through every
    // retry: each attempt is one setup abort, each abort schedules one
    // retry until the budget is spent, and the message is declared
    // undeliverable exactly once — dropped, not lost, never delivered.
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.maxRetries = 3;
    Network net(cfg);
    const NodeId dst = 3 + 8 * 3;
    for (int port = 0; port < net.topo().radix(); ++port)
        net.failNode(net.topo().neighbor(dst, port));
    net.setMeasuring(true);
    net.offerMessage(0, dst);
    EXPECT_TRUE(runToQuiescent(net, 300000));
    const Counters &c = net.counters();
    EXPECT_EQ(c.delivered, 0u);
    EXPECT_EQ(c.dropped, 1u);
    EXPECT_EQ(c.lost, 0u);
    // maxRetries + 1 attempts, each ending in a voluntary abort; the
    // last abort finds the budget exhausted and drops instead of
    // scheduling a further retry.
    EXPECT_EQ(c.setupAborts,
              static_cast<std::uint64_t>(cfg.maxRetries) + 1u);
    EXPECT_EQ(c.retriesScheduled,
              static_cast<std::uint64_t>(cfg.maxRetries));
    // Every abort epoch tore down cleanly: nothing owned, nothing
    // resident, all counters mutually consistent.
    assertConsistent(net);
}

} // namespace
} // namespace tpnet
