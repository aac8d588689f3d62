/** @file Unit tests for the bounded FIFO ring (RingPos over caller-owned
 *  slots, as the data plane's DIBUs use it). */

#include <vector>

#include <gtest/gtest.h>

#include "sim/fifo.hpp"

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
