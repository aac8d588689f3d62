/** @file Unit tests for VC trio state, the data plane, and router
 *  bookkeeping. */

#include <gtest/gtest.h>

#include "router/data_plane.hpp"
#include "router/link.hpp"
#include "router/router.hpp"

namespace tpnet {
namespace {

TEST(VcState, StartsFree)
{
    VcState vc;
    EXPECT_TRUE(vc.free());
    EXPECT_FALSE(vc.dataEnabled());  // unrouted
}

TEST(VcState, ReserveProgramsCmu)
{
    VcState vc;
    vc.reserve(7, 3, false);
    EXPECT_FALSE(vc.free());
    EXPECT_EQ(vc.owner, 7);
    EXPECT_EQ(vc.kReg, 3);
    EXPECT_EQ(vc.counter, 0);
    EXPECT_FALSE(vc.dataEnabled());  // not routed, counter < K
}

TEST(VcState, DataEnableRequiresCounterAtK)
{
    // Section 5.0: "If the counter value is K, data flits must be
    // allowed to flow. Otherwise they are blocked at the DIBU."
    VcState vc;
    vc.reserve(1, 2, false);
    vc.routed = true;
    vc.outPort = 0;
    vc.outVc = 0;
    EXPECT_FALSE(vc.dataEnabled());
    vc.counter = 1;
    EXPECT_FALSE(vc.dataEnabled());
    vc.counter = 2;
    EXPECT_TRUE(vc.dataEnabled());
    vc.counter = 3;
    EXPECT_TRUE(vc.dataEnabled());
}

TEST(VcState, DetourHoldBlocksData)
{
    // Section 4.0: all channels of a detour are accepted before data
    // resumes; the hold dominates the counter.
    VcState vc;
    vc.reserve(1, 0, true);
    vc.routed = true;
    EXPECT_FALSE(vc.dataEnabled());
    vc.hold = false;
    EXPECT_TRUE(vc.dataEnabled());
}

TEST(VcState, ReleaseResetsEverything)
{
    VcState vc;
    vc.reserve(5, 3, true);
    vc.routed = true;
    vc.counter = 3;
    vc.release();
    EXPECT_TRUE(vc.free());
    EXPECT_FALSE(vc.routed);
    EXPECT_EQ(vc.counter, 0);
    EXPECT_EQ(vc.kReg, 0);
    EXPECT_FALSE(vc.hold);
}

TEST(Link, InitLaysOutTrios)
{
    Link lk;
    lk.init(3, 0, 1, 7, 0);
    EXPECT_EQ(lk.id, 3);
    EXPECT_EQ(lk.src, 0);
    EXPECT_EQ(lk.dst, 7);
    EXPECT_FALSE(lk.faulty);
    EXPECT_FALSE(lk.unsafe);

    // The link's trios live in the data plane at index(link, vc).
    DataPlane plane;
    plane.init(8, 4, 5);
    EXPECT_EQ(plane.size(), 32u);
    EXPECT_EQ(plane.depth(), 5u);
    for (int v = 0; v < 4; ++v) {
        const VcIndex i = plane.index(lk.id, v);
        EXPECT_EQ(i, static_cast<VcIndex>(3 * 4 + v));
        EXPECT_EQ(plane.linkOf(i), lk.id);
        EXPECT_EQ(plane.vcOf(i), v);
        EXPECT_TRUE(plane[i].free());
        EXPECT_TRUE(plane[i].empty());
    }
}

TEST(Link, FirstFreeVcRespectsPartition)
{
    DataPlane plane;
    plane.init(1, 4, 2);
    EXPECT_EQ(plane.firstFreeVc(0, 0, 4), 0);
    EXPECT_EQ(plane.firstFreeVc(0, 2, 4), 2);  // adaptive partition
    plane.vc(0, 2).reserve(9, 0, false);
    EXPECT_EQ(plane.firstFreeVc(0, 2, 4), 3);
    plane.vc(0, 3).reserve(10, 0, false);
    EXPECT_EQ(plane.firstFreeVc(0, 2, 4), -1);
    EXPECT_EQ(plane.firstFreeVc(0, 0, 2), 0);
}

TEST(DataPlane, DibuRingWrapsAtEveryDepth)
{
    // Depth 3 is not a power of two: the compare-and-wrap must cycle
    // the head through every slot, and the cached front-ready cycle
    // must follow the front flit.
    for (int depth : {1, 3, 4, 6}) {
        SCOPED_TRACE(depth);
        DataPlane plane;
        plane.init(2, 2, depth);
        const VcIndex i = plane.index(1, 1);
        std::int32_t next = 0;
        std::int32_t expect = 0;
        for (int round = 0; round < 4 * depth; ++round) {
            while (!plane.full(i)) {
                Flit f;
                f.msg = 7;
                f.seq = next;
                f.readyAt = static_cast<Cycle>(100 + next);
                ++next;
                plane.push(i, f);
            }
            EXPECT_EQ(plane[i].frontReady, plane.at(i, 0).readyAt);
            const Flit f = plane.pop(i);
            EXPECT_EQ(f.seq, expect);
            ++expect;
            EXPECT_EQ(plane[i].size(),
                      static_cast<std::size_t>(depth - 1));
        }
        // Popped slots are stamped free; the others stay occupied.
        std::size_t occupied = 0;
        for (std::size_t s = 0; s < plane.depth(); ++s)
            occupied += plane.slot(i, s).msg != invalidMsg;
        EXPECT_EQ(occupied, plane[i].size());
    }
}

TEST(DataPlaneDeath, PushIntoFullDibuPanics)
{
    DataPlane plane;
    plane.init(1, 1, 2);
    plane.push(0, Flit{});
    plane.push(0, Flit{});
    EXPECT_DEATH(plane.push(0, Flit{}), "full FIFO");
}

TEST(DataPlaneDeath, PopEmptyDibuPanics)
{
    DataPlane plane;
    plane.init(1, 1, 2);
    EXPECT_DEATH(plane.pop(0), "empty FIFO");
}

TEST(Router, MapUnmapInputs)
{
    Router rt;
    rt.init(5, 4, 2);
    const VcIndex a = 20;
    const VcIndex b = 23;
    rt.mapInput(2, a);
    rt.mapInput(2, b);
    EXPECT_EQ(rt.mappedInputs(2).size(), 2u);
    rt.unmapInput(2, a);
    ASSERT_EQ(rt.mappedInputs(2).size(), 1u);
    EXPECT_EQ(rt.mappedInputs(2)[0], b);
    rt.unmapInput(2, b);
    EXPECT_TRUE(rt.mappedInputs(2).empty());
}

TEST(Router, EjectMappingSeparate)
{
    Router rt;
    rt.init(0, 4, 2);
    const VcIndex a = 14;
    rt.mapInput(ejectPort, a);
    EXPECT_EQ(rt.ejectInputs().size(), 1u);
    for (int port = 0; port < 4; ++port)
        EXPECT_TRUE(rt.mappedInputs(port).empty());
    rt.unmapInput(ejectPort, a);
    EXPECT_TRUE(rt.ejectInputs().empty());
}

TEST(Router, UnmapMissingIsNoop)
{
    Router rt;
    rt.init(0, 4, 2);
    rt.unmapInput(1, 99);  // must not crash
    EXPECT_TRUE(rt.mappedInputs(1).empty());
}

TEST(Router, CrossbarListsKeepMappingOrderUpToEveryInput)
{
    // A list holds every input VC of the router (radix x VCs): stale
    // mappings can outnumber an output's own VCs while teardown walks
    // sweep. Removal keeps the survivors in mapping order.
    Router rt;
    rt.init(0, 4, 2);
    ASSERT_EQ(rt.listCapacity(), 8u);
    for (VcIndex in = 0; in < 8; ++in)
        rt.mapInput(3, in);
    rt.unmapInput(3, 2);
    rt.unmapInput(3, 5);
    const std::vector<VcIndex> left(rt.mappedInputs(3).begin(),
                                    rt.mappedInputs(3).end());
    EXPECT_EQ(left, (std::vector<VcIndex>{0, 1, 3, 4, 6, 7}));
    rt.mapInput(3, 2);
    EXPECT_EQ(rt.mappedInputs(3).back(), 2u);
    rt.mapInput(3, 5);
    EXPECT_DEATH(rt.mapInput(3, 9), "is full");
}

} // namespace
} // namespace tpnet
