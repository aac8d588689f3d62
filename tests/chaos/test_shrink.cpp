/**
 * @file
 * Campaign shrinker: class-level greedy reduction, event-level delta
 * debugging over pinned fault timelines, and the guarantee that the
 * event-level result is never coarser than what class-level reduction
 * alone can reach. The runner is synthetic — a predicate over the
 * spec — so the tests shrink without simulating anything.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/shrink.hpp"

namespace tpnet {
namespace chaos {
namespace {

FaultEvent
nodeKill(Cycle at, NodeId node)
{
    return {at, FaultKind::NodeKill, node, -1, 0};
}

FaultEvent
linkKill(Cycle at, NodeId node, int port)
{
    return {at, FaultKind::LinkKill, node, port, 0};
}

CampaignSpec
failingSpec()
{
    CampaignSpec spec;
    spec.cfg.k = 8;
    spec.cfg.n = 2;
    spec.cfg.load = 0.15;
    spec.seed = 7;
    spec.injectCycles = 8000;
    spec.faults.horizon = 8000;
    spec.faults.nodeKills = 4;
    spec.faults.linkKills = 4;
    spec.faults.intermittents = 3;
    return spec;
}

/**
 * Synthetic failure: the bug reproduces iff the fired timeline
 * contains BOTH the node-2 kill and the (5,1) link kill. A randomized
 * run "fires" one event per configured class slot; a scripted run
 * fires exactly its pinned list — mirroring the real engine's
 * contract that scripted replays consume no fault RNG.
 */
CampaignResult
syntheticRun(const CampaignSpec &spec)
{
    std::vector<FaultEvent> fired;
    if (!spec.scriptedFaults.empty()) {
        fired = spec.scriptedFaults;
    } else {
        for (int i = 0; i < spec.faults.nodeKills; ++i)
            fired.push_back(nodeKill(100 * (i + 1),
                                     static_cast<NodeId>(i)));
        for (int i = 0; i < spec.faults.linkKills; ++i)
            fired.push_back(linkKill(150 * (i + 1),
                                     static_cast<NodeId>(3 + i), 1));
        for (int i = 0; i < spec.faults.intermittents; ++i)
            fired.push_back({200 * static_cast<Cycle>(i + 1),
                             FaultKind::LinkIntermittent,
                             static_cast<NodeId>(i), 2, 500});
    }
    const bool culpritA = std::any_of(
        fired.begin(), fired.end(), [](const FaultEvent &e) {
            return e.kind == FaultKind::NodeKill && e.node == 2;
        });
    const bool culpritB = std::any_of(
        fired.begin(), fired.end(), [](const FaultEvent &e) {
            return e.kind == FaultKind::LinkKill && e.node == 5 &&
                   e.port == 1;
        });
    CampaignResult r;
    r.passed = !(culpritA && culpritB);
    r.quiescent = r.passed;
    r.firedEvents = std::move(fired);
    return r;
}

TEST(Shrink, EventLevelReachesBelowTheClassLevelFloor)
{
    // Class-level reduction can only drop whole fault classes. The bug
    // needs one node kill AND one link kill, so neither class can go:
    // the class-level floor is 4 + 4 = 8 fired events. Event-level
    // delta debugging must land on exactly the two culprits.
    const ShrinkOutcome out = shrinkCampaign(failingSpec(), syntheticRun);

    EXPECT_TRUE(out.eventsPinned);
    ASSERT_EQ(out.spec.scriptedFaults.size(), 2u);
    EXPECT_GE(out.eventSteps, 6);  // at least 8 - 2 removals accepted
    const auto &evs = out.spec.scriptedFaults;
    EXPECT_TRUE(std::any_of(evs.begin(), evs.end(),
                            [](const FaultEvent &e) {
                                return e.kind == FaultKind::NodeKill &&
                                       e.node == 2;
                            }));
    EXPECT_TRUE(std::any_of(evs.begin(), evs.end(),
                            [](const FaultEvent &e) {
                                return e.kind == FaultKind::LinkKill &&
                                       e.node == 5 && e.port == 1;
                            }));
    // The minimized spec still fails, and the intermittent class (pure
    // noise here) was dropped by the class-level pass.
    EXPECT_FALSE(syntheticRun(out.spec).passed);
    EXPECT_EQ(out.spec.faults.intermittents, 0);
    EXPECT_GE(out.classSteps, 1);
}

TEST(Shrink, AlreadyScriptedSpecSkipsClassDropsAndStaysPinned)
{
    // A spec that arrives with a pinned timeline (a replayed
    // --fault-events case) is shrunk event-by-event directly; fault
    // class counts are meaningless for it and must not be touched by
    // the class pass.
    CampaignSpec spec = failingSpec();
    spec.scriptedFaults = {nodeKill(100, 2), linkKill(300, 5, 1),
                           nodeKill(400, 0), linkKill(600, 3, 1)};
    const ShrinkOutcome out = shrinkCampaign(spec, syntheticRun);

    EXPECT_TRUE(out.eventsPinned);
    ASSERT_EQ(out.spec.scriptedFaults.size(), 2u);
    EXPECT_EQ(out.eventSteps, 2);
    EXPECT_FALSE(syntheticRun(out.spec).passed);
}

TEST(Shrink, LastPinnedEventStaysWhenTheFailureNeedsAFault)
{
    // The bug needs any fault at all. Dropping the one pinned event
    // must not hand the campaign back to its randomized fault counts:
    // an empty pinned timeline means no faults, so the event stays.
    CampaignSpec spec = failingSpec();
    spec.faults.nodeKills = spec.faults.linkKills = 0;
    spec.faults.intermittents = 6;
    spec.scriptedFaults = {nodeKill(100, 2)};
    const auto anyFault = [](const CampaignSpec &s) {
        CampaignResult r;
        r.passed = s.scriptedFaults.empty() && s.faults.nodeKills == 0 &&
                   s.faults.linkKills == 0 && s.faults.intermittents == 0;
        r.quiescent = r.passed;
        r.firedEvents = s.scriptedFaults;
        return r;
    };
    const ShrinkOutcome out = shrinkCampaign(spec, anyFault);
    EXPECT_TRUE(out.eventsPinned);
    ASSERT_EQ(out.spec.scriptedFaults.size(), 1u);
    EXPECT_EQ(out.spec.scriptedFaults[0].node, 2);
    EXPECT_EQ(out.eventSteps, 0);
}

TEST(Shrink, DrainBudgetIsNeverShrunk)
{
    // A short drain fabricates "not quiescent" failures unrelated to
    // the bug; the shrinker must leave it alone.
    CampaignSpec spec = failingSpec();
    spec.drainCycles = 123456;
    const ShrinkOutcome out = shrinkCampaign(spec, syntheticRun);
    EXPECT_EQ(out.spec.drainCycles, 123456u);
}

TEST(FaultEventFormat, RoundTripsThroughTheReplaySpecString)
{
    const std::vector<FaultEvent> events = {
        nodeKill(84, 35), linkKill(249, 28, 1),
        {812, FaultKind::LinkIntermittent, 7, 3, 900}};
    const std::string spec = formatFaultEvents(events);
    EXPECT_EQ(spec, "84:n:35:-1:0,249:l:28:1:0,812:i:7:3:900");

    std::vector<FaultEvent> parsed;
    ASSERT_TRUE(parseFaultEvents(spec, &parsed));
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(parsed[i].at, events[i].at);
        EXPECT_EQ(parsed[i].kind, events[i].kind);
        EXPECT_EQ(parsed[i].node, events[i].node);
        EXPECT_EQ(parsed[i].port, events[i].port);
        EXPECT_EQ(parsed[i].downFor, events[i].downFor);
    }
}

TEST(FaultEventFormat, RejectsMalformedSpecs)
{
    std::vector<FaultEvent> out;
    EXPECT_FALSE(parseFaultEvents("84:n:35:-1", &out));     // 4 fields
    EXPECT_FALSE(parseFaultEvents("84:x:35:-1:0", &out));   // bad kind
    EXPECT_FALSE(parseFaultEvents("abc:n:35:-1:0", &out));  // bad time
    EXPECT_FALSE(parseFaultEvents(",", &out));
    EXPECT_FALSE(parseFaultEvents("12x:n:5:-1:0", &out));  // time prefix
    EXPECT_FALSE(parseFaultEvents("-5:n:5:-1:0", &out));   // no wrap
    EXPECT_FALSE(parseFaultEvents("1:n:5:-1:0x", &out));   // down suffix
    EXPECT_FALSE(parseFaultEvents("1:n:-7:-1:0", &out));   // node < -1
}

} // namespace
} // namespace chaos
} // namespace tpnet
