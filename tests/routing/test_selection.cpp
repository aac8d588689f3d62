/** @file Selection-function toolkit tests. */

#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "routing/selection.hpp"

namespace tpnet {
namespace {

using test::smallConfig;

/** Fixture: a network plus one live message whose probe sits at src. */
class SelectionTest : public ::testing::Test
{
  protected:
    SelectionTest()
        : net_(test::smallConfig(Protocol::TwoPhase))
    {}

    /** Offer and fetch a message (probe still at the source). */
    Message &
    makeMessage(NodeId src, NodeId dst)
    {
        EXPECT_TRUE(net_.offerMessage(src, dst));
        // The message id is sequential from 0.
        return net_.message(static_cast<MsgId>(counter_++));
    }

    /** The profitable-channel scan of @p msg under @p scan. */
    std::optional<select::Candidate>
    scanProfitable(Message &msg, select::Scan scan)
    {
        return select::firstFree(net_, msg,
                                 select::profitableByOffset(net_, msg),
                                 scan);
    }

    /**
     * The scans the routing steps run: safe adaptive (DP phase of TP),
     * healthy adaptive (DP, PCS, TP's switch to SR), untried adaptive
     * (SR, TP detours) and untried over every VC (MB-m).
     */
    std::vector<select::Scan>
    routingScans() const
    {
        const int floor = net_.adaptiveVcFloor();
        return {{.skipUnsafe = true, .vcFloor = floor},
                {.vcFloor = floor},
                {.skipTried = true, .vcFloor = floor},
                {.skipTried = true, .vcFloor = 0}};
    }

    Network net_;
    int counter_ = 0;
};

TEST_F(SelectionTest, ProfitableByOffsetOrdersByMagnitude)
{
    Message &msg = makeMessage(0, 2 + 8 * 3);  // offsets (+2, +3)
    const auto ports = select::profitableByOffset(net_, msg);
    ASSERT_EQ(ports.size(), 2u);
    EXPECT_EQ(ports[0], portOf(1, Dir::Plus));  // |+3| first
    EXPECT_EQ(ports[1], portOf(0, Dir::Plus));
}

TEST_F(SelectionTest, AdaptiveProfitableFindsFreeVc)
{
    Message &msg = makeMessage(0, 3);
    for (const select::Scan &scan : routingScans()) {
        const auto c = scanProfitable(msg, scan);
        ASSERT_TRUE(c.has_value());
        EXPECT_EQ(c->port, portOf(0, Dir::Plus));
        EXPECT_EQ(c->vc, scan.vcFloor);  // lowest free VC of the range
    }
    EXPECT_GE(net_.adaptiveVcFloor(), net_.escapeVcCount());

    // Recovery mode: the escape VCs join the adaptive scan.
    SimConfig cfg = smallConfig(Protocol::TwoPhase);
    cfg.recoveryMode = true;
    Network rec(cfg);
    ASSERT_TRUE(rec.offerMessage(0, 3));
    Message &rmsg = rec.message(0);
    ASSERT_EQ(rec.adaptiveVcFloor(), 0);
    const auto c = select::firstFree(rec, rmsg,
                                     select::profitableByOffset(rec, rmsg),
                                     {.vcFloor = rec.adaptiveVcFloor()});
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->port, portOf(0, Dir::Plus));
    EXPECT_EQ(c->vc, 0);
}

TEST_F(SelectionTest, SafeOnlySkipsUnsafeChannels)
{
    // Fail a node adjacent to the source: the source's channels become
    // unsafe, so a safe scan finds nothing while the others still do.
    net_.failNode(8 * 7);  // neighbor of 0 in dim 1 minus
    Message &msg = makeMessage(0, 3);
    for (const select::Scan &scan : routingScans())
        EXPECT_EQ(scanProfitable(msg, scan).has_value(), !scan.skipUnsafe);
}

TEST_F(SelectionTest, FaultyChannelsNeverCandidates)
{
    net_.failNode(1);  // the profitable neighbor itself
    Message &msg = makeMessage(0, 3);
    for (const select::Scan &scan : routingScans())
        EXPECT_FALSE(scanProfitable(msg, scan).has_value());  // only dim 0
}

TEST_F(SelectionTest, UntriedFilterHonorsHistory)
{
    Message &msg = makeMessage(0, 3);
    // A scan that does not filter tried ports never reads the history,
    // so it creates no frame for the checkpoint to carry.
    for (const select::Scan &scan : routingScans()) {
        if (!scan.skipTried) {
            EXPECT_TRUE(scanProfitable(msg, scan).has_value());
        }
    }
    EXPECT_TRUE(msg.visited.empty());

    net_.triedHere(msg) |= 1u << portOf(0, Dir::Plus);
    for (const select::Scan &scan : routingScans())
        EXPECT_EQ(scanProfitable(msg, scan).has_value(), !scan.skipTried);
}

TEST_F(SelectionTest, MisrouteSkipsProfitablePorts)
{
    Message &msg = makeMessage(0, 3);  // profitable: dim0 plus
    const auto c = select::misrouteUntried(net_, msg, true, false);
    ASSERT_TRUE(c.has_value());
    EXPECT_NE(c->port, portOf(0, Dir::Plus));
}

TEST_F(SelectionTest, MisrouteRespectsHistoryAndFaults)
{
    Message &msg = makeMessage(0, 3);
    // Exhaust every unprofitable option: mark two as tried, fail one.
    net_.triedHere(msg) |= 1u << portOf(0, Dir::Minus);
    net_.triedHere(msg) |= 1u << portOf(1, Dir::Plus);
    net_.failNode(8 * 7);  // dim-1 minus neighbor
    EXPECT_FALSE(
        select::misrouteUntried(net_, msg, true, false).has_value());
}

TEST_F(SelectionTest, EscapeClassFollowsDateline)
{
    Message &msg = makeMessage(0, 3);
    EXPECT_EQ(net_.escapeClass(msg, portOf(0, Dir::Plus)), 0);
    msg.hdr.datelineCrossed |= 1u << 0;
    EXPECT_EQ(net_.escapeClass(msg, portOf(0, Dir::Plus)), 1);
    EXPECT_EQ(net_.escapeClass(msg, portOf(1, Dir::Plus)), 0);
}

TEST_F(SelectionTest, EcubePortLowestDimensionFirst)
{
    Message &msg = makeMessage(0, 2 + 8 * 3);
    EXPECT_EQ(net_.ecubePort(msg), portOf(0, Dir::Plus));
    Message &msg2 = makeMessage(1, 1 + 8 * 5);  // offset (0, -3)
    EXPECT_EQ(net_.ecubePort(msg2), portOf(1, Dir::Minus));
}

/** Header states of the policy table: fresh, SR bit set, SR + detour. */
enum class Hdr { Fresh, Sr, SrDetour };

/** One row of the protocol policy table, written out by hand. */
struct PolicyRow
{
    Protocol proto;
    int scoutK;
    Hdr hdr;
    FlowMode initialFlow;
    bool inlineHeader;
    int kReg;
    bool posAck;
    bool abortsOnStall;
};

TEST(ProtocolPolicy, EveryProtocolRowMatchesTheTable)
{
    using FM = FlowMode;
    using P = Protocol;
    // Wormhole protocols (DOR, DP) never build a detour, so they have
    // no SR + detour row.
    const PolicyRow rows[] = {
        {P::DimOrder, 3, Hdr::Fresh, FM::Wormhole, true, 0, false, false},
        {P::DimOrder, 3, Hdr::Sr, FM::Wormhole, true, 0, false, false},
        {P::DimOrder, 0, Hdr::Fresh, FM::Wormhole, true, 0, false, false},
        {P::DimOrder, 0, Hdr::Sr, FM::Wormhole, true, 0, false, false},
        {P::Duato, 3, Hdr::Fresh, FM::Wormhole, true, 0, false, false},
        {P::Duato, 3, Hdr::Sr, FM::Wormhole, true, 0, false, false},
        {P::Duato, 0, Hdr::Fresh, FM::Wormhole, true, 0, false, false},
        {P::Duato, 0, Hdr::Sr, FM::Wormhole, true, 0, false, false},
        {P::Scouting, 3, Hdr::Fresh, FM::Scout, false, 3, true, true},
        {P::Scouting, 3, Hdr::Sr, FM::Scout, false, 3, true, true},
        {P::Scouting, 3, Hdr::SrDetour, FM::Scout, false, 3, false, true},
        {P::Scouting, 0, Hdr::Fresh, FM::Scout, false, 0, false, true},
        {P::Scouting, 0, Hdr::Sr, FM::Scout, false, 0, false, true},
        {P::Scouting, 0, Hdr::SrDetour, FM::Scout, false, 0, false, true},
        {P::Pcs, 3, Hdr::Fresh, FM::PcsSetup, false, 0, false, true},
        {P::Pcs, 3, Hdr::Sr, FM::PcsSetup, false, 0, false, true},
        {P::Pcs, 3, Hdr::SrDetour, FM::PcsSetup, false, 0, false, true},
        {P::Pcs, 0, Hdr::Fresh, FM::PcsSetup, false, 0, false, true},
        {P::Pcs, 0, Hdr::Sr, FM::PcsSetup, false, 0, false, true},
        {P::Pcs, 0, Hdr::SrDetour, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 3, Hdr::Fresh, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 3, Hdr::Sr, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 3, Hdr::SrDetour, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 0, Hdr::Fresh, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 0, Hdr::Sr, FM::PcsSetup, false, 0, false, true},
        {P::MBm, 0, Hdr::SrDetour, FM::PcsSetup, false, 0, false, true},
        {P::TwoPhase, 3, Hdr::Fresh, FM::Wormhole, false, 0, false, false},
        {P::TwoPhase, 3, Hdr::Sr, FM::Wormhole, false, 3, true, true},
        {P::TwoPhase, 3, Hdr::SrDetour, FM::Wormhole, false, 3, false,
         true},
        {P::TwoPhase, 0, Hdr::Fresh, FM::Wormhole, false, 0, false, false},
        {P::TwoPhase, 0, Hdr::Sr, FM::Wormhole, false, 0, false, true},
        {P::TwoPhase, 0, Hdr::SrDetour, FM::Wormhole, false, 0, false,
         true},
    };
    for (const PolicyRow &row : rows) {
        SCOPED_TRACE(::testing::Message()
                     << protocolName(row.proto) << " K=" << row.scoutK
                     << " hdr=" << static_cast<int>(row.hdr));
        SimConfig cfg = smallConfig(row.proto);
        cfg.scoutK = row.scoutK;
        const RoutingProtocol proto(cfg);

        Message msg;
        msg.hdr.flow = proto.initialFlow();
        if (row.hdr != Hdr::Fresh) {
            // Only TP sets the SR bit (Network::enterSrMode), and it
            // moves the flow to Scout with it; the other protocols'
            // flow never leaves its initial mode.
            msg.hdr.sr = true;
            if (row.proto == Protocol::TwoPhase)
                msg.hdr.flow = FlowMode::Scout;
        }
        msg.hdr.detour = row.hdr == Hdr::SrDetour;

        EXPECT_EQ(proto.initialFlow(), row.initialFlow);
        EXPECT_EQ(proto.inlineHeader(), row.inlineHeader);
        EXPECT_EQ(proto.kRegFor(msg), row.kReg);
        EXPECT_EQ(proto.emitsPosAck(msg), row.posAck);
        EXPECT_EQ(proto.abortsOnStall(msg), row.abortsOnStall);
    }
}

} // namespace
} // namespace tpnet
