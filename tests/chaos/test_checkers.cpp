/**
 * @file
 * The chaos checkers' reports, one by one: the delivery oracle driven
 * through its trace hooks by hand, and the progress watchdog watching a
 * network frozen by skipping its clock. Each report is pinned by its
 * full text, so a change to how the checkers find their records shows
 * up as a changed line.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using namespace chaos;
using Lines = std::vector<std::string>;

Message
fakeMessage(MsgId id)
{
    Message msg;
    msg.id = id;
    msg.src = 1;
    msg.dst = 2;
    msg.length = 4;
    msg.injectedFlits = 4;
    msg.arrivedFlits = 4;
    return msg;
}

Flit
tailOf(MsgId id)
{
    Flit flit;
    flit.msg = id;
    flit.type = FlitType::Tail;
    return flit;
}

TEST(DeliveryOracle, EveryReportFires)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4);
    cfg.tailAck = true;
    cfg.maxRetries = 3;
    cfg.validate();
    Network net(cfg);
    DeliveryOracle oracle(net);  // detached: the test plays the network

    for (MsgId id = 0; id < 25; ++id)
        oracle.messageCreated(10, fakeMessage(id));
    oracle.messageCreated(11, fakeMessage(3));
    // Unknown ids: below the first, one past the last seen, and a
    // non-tail flit of an unknown message (not a report).
    oracle.flitDelivered(12, 0, tailOf(-1));
    oracle.flitDelivered(12, 0, tailOf(25));
    Flit body = tailOf(26);
    body.type = FlitType::Data;
    oracle.flitDelivered(12, 0, body);
    oracle.messageTerminal(12, fakeMessage(-1), MsgOutcome::Delivered);
    oracle.messageTerminal(12, fakeMessage(25), MsgOutcome::Lost);

    // 0: two tails, then completes.
    oracle.flitDelivered(20, 2, tailOf(0));
    oracle.flitDelivered(21, 2, tailOf(0));
    oracle.messageTerminal(22, fakeMessage(0), MsgOutcome::Delivered);
    // 1: a clean delivery, then a late tail.
    oracle.flitDelivered(20, 2, tailOf(1));
    oracle.messageTerminal(22, fakeMessage(1), MsgOutcome::Delivered);
    oracle.flitDelivered(23, 2, tailOf(1));
    // 2: given up with retries left, then terminated again.
    oracle.messageTerminal(24, fakeMessage(2), MsgOutcome::Undeliverable);
    oracle.messageTerminal(25, fakeMessage(2), MsgOutcome::Lost);
    // 3: lost although tail acknowledgments retransmit.
    oracle.messageTerminal(26, fakeMessage(3), MsgOutcome::Lost);
    // 4: a legal undeliverable (retries exhausted).
    Message four = fakeMessage(4);
    four.retries = 3;
    oracle.messageTerminal(27, four, MsgOutcome::Undeliverable);
    // 5: completes without its tail and short of flits.
    Message five = fakeMessage(5);
    five.arrivedFlits = 3;
    oracle.messageTerminal(28, five, MsgOutcome::Delivered);
    // 6 and 7: a tail, then declared undeliverable / lost.
    oracle.flitDelivered(29, 2, tailOf(6));
    Message six = fakeMessage(6);
    six.retries = 3;
    oracle.messageTerminal(30, six, MsgOutcome::Undeliverable);
    oracle.flitDelivered(29, 2, tailOf(7));
    oracle.messageTerminal(31, fakeMessage(7), MsgOutcome::Lost);

    // 8..24 never terminate: 17, so the cap of 16 lines bites.
    oracle.finalCheck();

    Lines want = {
        "cycle 11: oracle: msg 3 created twice",
        "cycle 12: oracle: tail of unknown msg -1 delivered",
        "cycle 12: oracle: tail of unknown msg 25 delivered",
        "cycle 12: oracle: unknown msg -1 terminated",
        "cycle 12: oracle: unknown msg 25 terminated",
        "cycle 21: oracle: duplicate delivery: tail of msg 0 ejected 2 "
        "times",
        "cycle 22: oracle: msg 0 completed with 2 tail deliveries (want "
        "exactly 1)",
        "cycle 23: oracle: duplicate delivery: tail of msg 1 ejected 2 "
        "times",
        "cycle 23: oracle: tail of msg 1 delivered after the message "
        "terminated (delivered)",
        "cycle 24: oracle: msg 2 declared undeliverable after 0 retries "
        "(max 3) with both endpoints healthy",
        "cycle 25: oracle: msg 2 terminated twice (undeliverable then "
        "lost)",
        "cycle 26: oracle: msg 3 lost to a fault despite tail "
        "acknowledgments (retransmission) being enabled",
        "cycle 28: oracle: msg 5 completed with 0 tail deliveries (want "
        "exactly 1)",
        "cycle 28: oracle: msg 5 completed with 3/4 flits delivered (4 "
        "injected)",
        "cycle 30: oracle: msg 6 declared undeliverable after its tail "
        "was delivered",
        "cycle 31: oracle: msg 7 lost to a fault despite tail "
        "acknowledgments (retransmission) being enabled",
        "cycle 31: oracle: msg 7 counted lost after its tail was "
        "delivered",
    };
    for (MsgId id = 8; id < 24; ++id) {
        want.push_back("cycle 0: oracle: msg " + std::to_string(id) +
                       " (1->2, created at cycle 10) never terminated");
    }
    want.push_back("cycle 0: oracle: 1 further unterminated messages");
    want.push_back(
        "cycle 0: oracle: generated mismatch: oracle saw 25, counters "
        "say 0");
    want.push_back(
        "cycle 0: oracle: delivered mismatch: oracle saw 3, counters "
        "say 0");
    want.push_back(
        "cycle 0: oracle: undeliverable mismatch: oracle saw 3, "
        "counters say 0");
    want.push_back(
        "cycle 0: oracle: lost mismatch: oracle saw 2, counters say 0");
    EXPECT_EQ(oracle.violations(), want);
    EXPECT_EQ(oracle.created(), 25u);
    EXPECT_EQ(oracle.deliveredOnce(), 3u);
}

TEST(DeliveryOracle, LateAttachedOracleKnowsOnlyWhatItSaw)
{
    // Attached after ids 0..4 were issued: those read as unknown.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4);
    cfg.validate();
    Network net(cfg);
    DeliveryOracle oracle(net);
    oracle.messageCreated(40, fakeMessage(5));
    oracle.flitDelivered(41, 2, tailOf(2));
    oracle.flitDelivered(41, 2, tailOf(6));
    oracle.messageTerminal(42, fakeMessage(0), MsgOutcome::Lost);
    oracle.finalCheck();
    const Lines want = {
        "cycle 41: oracle: tail of unknown msg 2 delivered",
        "cycle 41: oracle: tail of unknown msg 6 delivered",
        "cycle 42: oracle: unknown msg 0 terminated",
        "cycle 0: oracle: msg 5 (1->2, created at cycle 40) never "
        "terminated",
        "cycle 0: oracle: generated mismatch: oracle saw 1, counters "
        "say 0",
    };
    EXPECT_EQ(oracle.violations(), want);
}

TEST(DeliveryOracleDeath, NegativeIdAtCreationPanics)
{
    // The table is indexed by id: the network never issues one below 0.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4);
    cfg.validate();
    Network net(cfg);
    DeliveryOracle oracle(net);
    EXPECT_DEATH(oracle.messageCreated(0, fakeMessage(-1)),
                 "created under id -1");
}

/** Every watchdog check off; each test arms the one it exercises. */
WatchdogConfig
quietWatchdog()
{
    WatchdogConfig w;
    w.globalStallBound = 0;
    w.msgStallBound = 0;
    w.validateEvery = 0;
    w.conserveEvery = 0;
    return w;
}

/**
 * Two messages, watched from cycle 0 and stepped for two cycles.
 * freeze() then advances the clock without stepping, so nothing moves:
 * every stall bound can be reached in one observe().
 */
struct Watched
{
    Network net;
    Watchdog dog;

    explicit Watched(const WatchdogConfig &w)
        : net(config()), dog(net, w)
    {
        net.offerMessage(0, 10);
        net.offerMessage(3, 9);
        for (int c = 0; c < 2; ++c) {
            net.step();
            dog.observe();
        }
        EXPECT_TRUE(active(0) && active(1));
    }

    static SimConfig
    config()
    {
        SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4);
        cfg.watchdog = 0;
        cfg.validate();
        return cfg;
    }

    bool active(MsgId id) { return net.message(id).state == MsgState::Active; }

    void
    freeze(Cycle cycles)
    {
        net.skipTo(net.now() + cycles);
        dog.observe();
    }
};

TEST(Watchdog, DeadlockReportFires)
{
    WatchdogConfig w = quietWatchdog();
    w.globalStallBound = 50;
    Watched h(w);
    const Cycle at = h.net.now();
    EXPECT_EQ(h.dog.nextDeadline(), at + 50);
    h.freeze(49);
    EXPECT_TRUE(h.dog.violations().empty());
    h.freeze(1);
    EXPECT_TRUE(h.dog.deadlocked());
    EXPECT_EQ(h.dog.violations(),
              Lines{"cycle 52: deadlock: no token moved for 50 cycles "
                    "with 2 live messages"});
}

TEST(Watchdog, FrozenMessageReportsFireInIdOrder)
{
    WatchdogConfig w = quietWatchdog();
    w.msgStallBound = 40;
    Watched h(w);
    EXPECT_EQ(h.dog.nextDeadline(), 2u + 40);
    h.freeze(40);
    const Lines want = {
        "cycle 42: livelock: msg 0 (0->10, state 1, epoch 0) made no "
        "progress for 40 cycles while the network kept moving",
        "cycle 42: livelock: msg 1 (3->9, state 1, epoch 0) made no "
        "progress for 40 cycles while the network kept moving",
    };
    EXPECT_EQ(h.dog.violations(), want);
    // Flagged tracks are not reported again.
    h.freeze(100);
    EXPECT_EQ(h.dog.violations(), want);
    EXPECT_EQ(h.dog.nextDeadline(), cycleNever);
}

TEST(Watchdog, HeaderOscillationReportFires)
{
    WatchdogConfig w = quietWatchdog();
    w.msgStallBound = 40;
    Watched h(w);
    // Probe churn moves the full signature but not the progress one.
    h.net.skipTo(h.net.now() + 40);
    h.net.message(0).hdr.hops += 1;
    h.net.message(1).hdr.hops += 1;
    h.dog.observe();
    const Lines want = {
        "cycle 42: livelock: header oscillating: msg 0 (0->10, epoch 0) "
        "searched for 40 cycles (hops=3, backtracks=0) without moving "
        "any data",
        "cycle 42: livelock: header oscillating: msg 1 (3->9, epoch 0) "
        "searched for 40 cycles (hops=3, backtracks=0) without moving "
        "any data",
    };
    EXPECT_EQ(h.dog.violations(), want);
}

TEST(Watchdog, FlitConservationReportFires)
{
    WatchdogConfig w = quietWatchdog();
    w.conserveEvery = 1;
    Watched h(w);
    EXPECT_TRUE(h.dog.violations().empty());
    h.net.message(1).injectedFlits += 1;
    h.dog.observe();
    EXPECT_EQ(h.dog.violations(),
              Lines{"cycle 2: flit conservation: msg 1 injected 3, "
                    "delivered 0, but 2 flits resident in its path "
                    "(expected 3)"});
}

TEST(Watchdog, ValidatorReportFires)
{
    WatchdogConfig w = quietWatchdog();
    w.validateEvery = 1;
    Watched h(w);
    EXPECT_TRUE(h.dog.violations().empty());
    h.net.message(0).hdr.misroutes = -1;
    h.dog.observe();
    EXPECT_EQ(h.dog.violations(),
              Lines{"cycle 2: validator: msg 0 negative outstanding "
                    "misroutes"});
}

} // namespace
} // namespace tpnet
