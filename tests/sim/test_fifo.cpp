/** @file Unit tests for the FIFO rings: the bounded RingPos over
 *  caller-owned slots (the data plane's DIBUs) and the growable Fifo<T>
 *  (the control lanes and RCU queues), including how a wrapped control
 *  lane enters the state hash. */

#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_schedule.hpp"
#include "chaos/oracle.hpp"
#include "chaos/snapshot.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "sim/fifo.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

/** A ring of ints: the slots the caller owns plus their position. */
struct Ring
{
    std::vector<int> slots;
    RingPos pos;

    explicit Ring(std::size_t cap) : slots(cap) {}

    std::size_t cap() const { return slots.size(); }
    void push(int v) { slots[pos.push(cap())] = v; }
    int pop() { return slots[pos.pop(cap())]; }
    int &front() { return slots[pos.front()]; }
    int at(std::size_t i) const { return slots[pos.at(i, cap())]; }
    bool full() const { return pos.size() == cap(); }
};

TEST(Fifo, StartsEmpty)
{
    Ring f(4);
    EXPECT_TRUE(f.pos.empty());
    EXPECT_FALSE(f.full());
    EXPECT_EQ(f.pos.size(), 0u);
}

TEST(Fifo, PushPopOrder)
{
    Ring f(3);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_TRUE(f.pos.empty());
}

TEST(Fifo, WrapsAroundRing)
{
    Ring f(2);
    for (int i = 0; i < 100; ++i) {
        f.push(i);
        EXPECT_EQ(f.front(), i);
        EXPECT_EQ(f.pop(), i);
    }
    EXPECT_TRUE(f.pos.empty());
}

TEST(Fifo, InterleavedWrap)
{
    Ring f(3);
    f.push(0);
    f.push(1);
    EXPECT_EQ(f.pop(), 0);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
}

TEST(Fifo, FrontIsMutable)
{
    Ring f(2);
    f.push(7);
    f.front() = 9;
    EXPECT_EQ(f.pop(), 9);
}

TEST(Fifo, AtIndexesBehindHead)
{
    Ring f(4);
    f.push(10);
    f.push(11);
    f.push(12);
    EXPECT_EQ(f.at(0), 10);
    EXPECT_EQ(f.at(1), 11);
    EXPECT_EQ(f.at(2), 12);
    f.pop();
    EXPECT_EQ(f.at(0), 11);
}

TEST(Fifo, ClearEmpties)
{
    Ring f(4);
    f.push(1);
    f.push(2);
    f.pos.clear();
    EXPECT_TRUE(f.pos.empty());
    f.push(5);
    EXPECT_EQ(f.front(), 5);
}

TEST(Fifo, ResetChangesCapacity)
{
    // The capacity is the caller's: a cleared position serves slots of
    // another size.
    Ring f(2);
    f.push(1);
    f.pos.clear();
    f.slots.assign(8, 0);
    EXPECT_TRUE(f.pos.empty());
    for (int i = 0; i < 8; ++i)
        f.push(i);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.at(7), 7);
}

// --- Fifo<T>: the growable ring ---------------------------------------

/** Pop every element of @p f, oldest first. */
std::vector<int>
drain(Fifo<int> &f)
{
    std::vector<int> out;
    while (!f.empty()) {
        out.push_back(f.front());
        f.pop_front();
    }
    return out;
}

TEST(Fifo, GrowableRingWrapsInPlace)
{
    // Never more than three queued: the first four-slot ring serves
    // every push, its head and tail wrapping many times.
    Fifo<int> f;
    int next = 0, expect = 0;
    for (int round = 0; round < 50; ++round) {
        while (f.size() < 3)
            f.push_back(next++);
        EXPECT_EQ(f.front(), expect++);
        f.pop_front();
        EXPECT_EQ(f[0], expect);
        EXPECT_EQ(f[1], expect + 1);
    }
    EXPECT_EQ(drain(f), (std::vector<int>{expect, expect + 1}));
}

TEST(Fifo, GrowableRingGrowsWhileWrapped)
{
    // Wrap a full four-slot ring (head at slot 2), then push past it:
    // the grown ring keeps the queue order, and grows again later.
    Fifo<int> f;
    for (int v = 0; v < 4; ++v)
        f.push_back(v);
    f.pop_front();
    f.pop_front();
    f.push_back(4);
    f.push_back(5);
    f.push_back(6);
    for (int v = 7; v < 20; ++v)
        f.push_back(v);
    ASSERT_EQ(f.size(), 18u);
    std::vector<int> want;
    for (int v = 2; v < 20; ++v)
        want.push_back(v);
    EXPECT_EQ(drain(f), want);
}

TEST(Fifo, GrowableRingClearAndReuse)
{
    Fifo<int> f;
    for (int v = 0; v < 6; ++v)
        f.push_back(v);
    f.pop_front();
    f.clear();
    EXPECT_TRUE(f.empty());
    for (int v = 10; v < 19; ++v)
        f.push_back(v);
    EXPECT_EQ(f.front(), 10);
    EXPECT_EQ(f.size(), 9u);
    f.resize(2);
    f.resize(4);  // pads with value-initialized elements
    EXPECT_EQ(drain(f), (std::vector<int>{10, 11, 0, 0}));
}

TEST(Fifo, GrowableRingIndexesInPopOrder)
{
    Fifo<int> f;
    for (int v = 0; v < 4; ++v)
        f.push_back(v);
    f.pop_front();
    f.pop_front();
    f.push_back(4);
    f.push_back(5);  // wrapped: 2, 3 at the ring's end; 4, 5 at its start
    std::vector<int> seen;
    for (std::size_t i = 0; i < f.size(); ++i)
        seen.push_back(f[i]);
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_EQ(drain(f), seen);
}

/** A bare campaign harness whose state the tests hash. */
struct Side
{
    Network net;
    Rng faultRng{5};
    chaos::FaultSchedule schedule;
    chaos::DeliveryOracle oracle{net};
    chaos::Watchdog watchdog{net, chaos::WatchdogConfig{}};
    Injector injector{net};

    Side() : net(test::smallConfig(Protocol::TwoPhase, 4, 2)) {}

    std::uint64_t
    digest() const
    {
        return chaos::campaignStateDigest(
            {&net, &faultRng, &schedule, &oracle, &watchdog, &injector});
    }

    /** Push KillUp flits numbered @p from..@p to - 1 on link 0's lane. */
    void
    push(int from, int to)
    {
        for (int i = from; i < to; ++i) {
            Flit flit;
            flit.type = FlitType::KillUp;
            flit.msg = invalidMsg;
            flit.seq = i;
            flit.readyAt = static_cast<Cycle>(100 + i);
            net.link(0).ctrlQ.push_back(flit);
        }
    }
};

TEST(Fifo, WrappedControlLaneHashesLikeAnUnwrappedOne)
{
    // The state hash folds a ring in pop order, so where its head sits
    // in the slots stays out of the digest: a lane wrapped as above and
    // one pushed straight hold flits 2..5 and hash alike.
    Side wrapped, straight;
    wrapped.push(0, 4);
    wrapped.net.link(0).ctrlQ.pop_front();
    wrapped.net.link(0).ctrlQ.pop_front();
    wrapped.push(4, 6);
    straight.push(2, 6);
    ASSERT_EQ(wrapped.net.link(0).ctrlQ.size(), 4u);
    EXPECT_EQ(wrapped.digest(), straight.digest());
}

TEST(Fifo, ChangedControlFlitMovesTheStateDigest)
{
    Side wrapped, straight;
    wrapped.push(0, 4);
    wrapped.net.link(0).ctrlQ.pop_front();
    wrapped.net.link(0).ctrlQ.pop_front();
    wrapped.push(4, 6);
    straight.push(2, 6);
    ++straight.net.link(0).ctrlQ[3].seq;
    EXPECT_NE(wrapped.digest(), straight.digest());
    --straight.net.link(0).ctrlQ[3].seq;
    straight.net.link(0).ctrlQ[0].readyAt += 1;
    EXPECT_NE(wrapped.digest(), straight.digest());
}

TEST(FifoDeath, PushIntoFullPanics)
{
    Ring f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full FIFO");
}

TEST(FifoDeath, PopEmptyPanics)
{
    Ring f(1);
    EXPECT_DEATH(f.pop(), "empty FIFO");
}

TEST(FifoDeath, AtOutOfRangePanics)
{
    Ring f(2);
    f.push(1);
    EXPECT_DEATH(f.at(1), "out of range");
}

} // namespace
} // namespace tpnet
