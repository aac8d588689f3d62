/**
 * @file
 * Unit tests of the activity-scheduling primitives (ActivitySet,
 * WakeupQueue) plus randomized digest-identity properties: the
 * event-driven engine must produce bit-identical traces, counters, and
 * campaign reports to the time-stepped engine, because it only changes
 * which entities are *visited*, never what a visit does.
 */

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

// --- ActivitySet --------------------------------------------------------

std::vector<std::uint32_t>
drainPass(ActivitySet &set, std::size_t rot)
{
    set.beginPass(rot);
    std::vector<std::uint32_t> order;
    for (std::uint32_t id; (id = set.next()) != ActivitySet::kNone;)
        order.push_back(id);
    return order;
}

TEST(ActivitySet, AddRemoveTracksCount)
{
    ActivitySet set;
    set.reset(8);
    EXPECT_TRUE(set.empty());
    set.add(3);
    set.add(5);
    set.add(3);  // idempotent
    EXPECT_EQ(set.count(), 2u);
    EXPECT_TRUE(set.active(3));
    EXPECT_FALSE(set.active(4));
    set.remove(3);
    set.remove(3);  // idempotent
    EXPECT_EQ(set.count(), 1u);
    EXPECT_FALSE(set.active(3));
}

TEST(ActivitySet, PassVisitsInRotationOrder)
{
    ActivitySet set;
    set.reset(8);
    set.add(1);
    set.add(3);
    set.add(6);
    // A full scan starting at offset 5 visits 5,6,7,0,1,2,3,4 and
    // finds the active subset in the order 6, 1, 3.
    EXPECT_EQ(drainPass(set, 5),
              (std::vector<std::uint32_t>{6, 1, 3}));
    // Entities stay active across passes until removed.
    EXPECT_EQ(drainPass(set, 0),
              (std::vector<std::uint32_t>{1, 3, 6}));
}

TEST(ActivitySet, MidPassAddAheadOfCursorJoinsThisPass)
{
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    // 5 is still ahead of a cursor at key 2: the full scan would have
    // reached it this cycle, so it must be visited now.
    set.add(5);
    EXPECT_EQ(set.next(), 5u);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, MidPassAddBehindCursorWaitsForNextPass)
{
    ActivitySet set;
    set.reset(8);
    set.add(4);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 4u);
    // The full scan already passed offset 1 this cycle.
    set.add(1);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
    EXPECT_TRUE(set.active(1));
    EXPECT_EQ(drainPass(set, 0),
              (std::vector<std::uint32_t>{1, 4}));
}

TEST(ActivitySet, RemovedMidPassEntityIsSkipped)
{
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.add(6);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    set.remove(6);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, ReaddedMidPassEntityIsVisitedOnce)
{
    // Deactivate then reactivate an entity that is ahead of the
    // cursor: the walk meets its bit once and visits it exactly once.
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.add(5);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    set.remove(5);
    set.add(5);
    EXPECT_EQ(set.next(), 5u);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, EmptyPassReturnsNoneImmediately)
{
    ActivitySet set;
    set.reset(4);
    EXPECT_EQ(drainPass(set, 3), std::vector<std::uint32_t>{});
}

/** The ids a full scan from offset @p rot finds active in @p ref. */
std::vector<std::uint32_t>
fullScan(const std::vector<bool> &ref, std::size_t rot)
{
    std::vector<std::uint32_t> order;
    const std::size_t n = ref.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t id = (rot + k) % n;
        if (ref[id])
            order.push_back(static_cast<std::uint32_t>(id));
    }
    return order;
}

const std::size_t kUniverses[] = {1, 63, 64, 65, 130};

TEST(ActivitySet, PassOrderMatchesFullScanAcrossWordBoundaries)
{
    // Rotations on a word boundary (0, 64, 128) and on either side of
    // one, in universes that end inside, at, and past a word.
    for (const std::size_t n : kUniverses) {
        ActivitySet set;
        set.reset(n);
        std::vector<bool> ref(n);
        for (std::size_t id = 0; id < n; ++id) {
            if (id % 3 != 1 || id == 63 || id == 64 || id + 1 == n) {
                set.add(static_cast<std::uint32_t>(id));
                ref[id] = true;
            }
        }
        for (const std::size_t rot :
             {std::size_t{0}, std::size_t{1}, std::size_t{62},
              std::size_t{63}, std::size_t{64}, std::size_t{65},
              std::size_t{127}, std::size_t{128}, std::size_t{129},
              n - 1, n, n + 64}) {
            EXPECT_EQ(drainPass(set, rot), fullScan(ref, rot % n))
                << "n=" << n << " rot=" << rot;
        }
    }
}

TEST(ActivitySet, LastEntityOfEachWordIsVisitedOnce)
{
    for (const std::size_t n : kUniverses) {
        for (const std::size_t rot : {std::size_t{0}, n / 2, n - 1}) {
            ActivitySet set;
            set.reset(n);
            std::vector<bool> ref(n);
            for (std::size_t id = 63; id < n; id += 64) {
                set.add(static_cast<std::uint32_t>(id));
                ref[id] = true;
            }
            set.add(static_cast<std::uint32_t>(n - 1));
            ref[n - 1] = true;
            EXPECT_EQ(drainPass(set, rot), fullScan(ref, rot))
                << "n=" << n << " rot=" << rot;
            EXPECT_EQ(set.count(), fullScan(ref, 0).size());
        }
    }
}

TEST(ActivitySet, RandomizedChurnDuringPassesMatchesNaiveFullScan)
{
    // Each visit adds and removes random entities, the visited one
    // included, in both the set and a plain bool array. The reference
    // pass is the full scan itself: a cursor over rotation keys that
    // reads the array's live state, so it visits an entity added ahead
    // of the cursor and skips one removed ahead of it.
    Rng rng(35);
    for (const std::size_t n : kUniverses) {
        ActivitySet set;
        set.reset(n);
        std::vector<bool> ref(n);
        const auto churn = [&](std::uint64_t times, double addP) {
            for (; times > 0; --times) {
                const auto id = static_cast<std::uint32_t>(rng.below(n));
                const bool add = rng.chance(addP);
                if (add)
                    set.add(id);
                else
                    set.remove(id);
                ref[id] = add;
            }
        };
        for (int pass = 0; pass < 300; ++pass) {
            const std::size_t rot = rng.below(n + 1);
            set.beginPass(rot);
            std::size_t k = 0;
            const auto refNext = [&]() -> std::uint32_t {
                for (; k < n; ++k) {
                    const std::size_t id = (rot + k) % n;
                    if (ref[id]) {
                        ++k;
                        return static_cast<std::uint32_t>(id);
                    }
                }
                return ActivitySet::kNone;
            };
            for (;;) {
                const std::uint32_t want = refNext();
                ASSERT_EQ(set.next(), want)
                    << "n=" << n << " pass=" << pass << " rot=" << rot;
                if (want == ActivitySet::kNone)
                    break;
                if (rng.chance(0.5)) {
                    set.remove(want);
                    ref[want] = false;
                }
                churn(rng.below(4), 0.6);
            }
            // Churn between passes too, so sparse and dense sets both
            // occur.
            churn(rng.below(8), 0.5);
            std::size_t live = 0;
            for (std::size_t id = 0; id < n; ++id) {
                live += ref[id];
                ASSERT_EQ(set.active(static_cast<std::uint32_t>(id)),
                          ref[id]);
            }
            ASSERT_EQ(set.count(), live);
        }
    }
}

// --- WakeupQueue --------------------------------------------------------

TEST(WakeupQueue, ReschedulingCoalescesToTheEarliestCycle)
{
    WakeupQueue q;
    q.reset(1);
    EXPECT_EQ(q.nextAt(), cycleNever);
    q.schedule(0, 50);
    q.schedule(0, 20);   // earlier wins
    EXPECT_EQ(q.nextAt(), 20u);
    q.schedule(0, 80);   // later is ignored
    EXPECT_EQ(q.nextAt(), 20u);
    q.reset(1);          // reset disarms every token
    EXPECT_EQ(q.nextAt(), cycleNever);
}

TEST(WakeupQueue, RescheduleWhilePendingReordersAgainstOtherTokens)
{
    WakeupQueue q;
    q.reset(2);
    q.schedule(0, 50);
    q.schedule(1, 30);
    EXPECT_EQ(q.nextAt(), 30u);
    q.schedule(0, 10);  // token 0 jumps ahead of token 1
    EXPECT_EQ(q.nextAt(), 10u);
}

// --- Digest-identity properties -----------------------------------------

struct EngineRun
{
    std::uint64_t digest = 0;
    std::size_t events = 0;
    Cycle cycles = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
};

EngineRun
runScenario(SimConfig cfg, bool event_engine, Cycle inject, Cycle drain)
{
    cfg.eventEngine = event_engine;
    Network net(cfg);
    Injector inj(net);
    obs::TraceRecorder rec;
    net.attachTrace(&rec);
    for (Cycle c = 0; c < inject; ++c) {
        inj.step();
        net.step();
    }
    inj.stop();
    for (Cycle c = 0; c < drain && !net.quiescent(); ++c)
        net.step();
    net.attachTrace(nullptr);
    EngineRun out;
    out.digest = rec.digest();
    out.events = rec.size();
    out.cycles = net.now();
    out.generated = net.counters().generated;
    out.delivered = net.counters().delivered;
    out.dropped = net.counters().dropped;
    return out;
}

TEST(EngineIdentity, RandomizedLoadedRunsAreBitIdentical)
{
    // Random protocol / load / fault mixes, each traced under both
    // engines. The trace covers every externally visible event, so a
    // matching digest means the engines executed the same simulation.
    Rng rng(0xE7E27u);
    const Protocol protos[] = {Protocol::Pcs, Protocol::Scouting,
                               Protocol::TwoPhase, Protocol::Duato};
    for (int trial = 0; trial < 6; ++trial) {
        SimConfig cfg = test::smallConfig(
            protos[rng.below(4)], rng.below(2) ? 8 : 4);
        cfg.load = 0.02 + 0.03 * static_cast<double>(rng.below(5));
        cfg.seed = rng.next();
        cfg.scoutK = static_cast<int>(rng.below(3));
        cfg.tailAck = rng.below(2) == 0;
        SCOPED_TRACE("trial " + std::to_string(trial));
        const EngineRun on = runScenario(cfg, true, 400, 20000);
        const EngineRun off = runScenario(cfg, false, 400, 20000);
        EXPECT_EQ(on.digest, off.digest);
        EXPECT_EQ(on.events, off.events);
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.generated, off.generated);
        EXPECT_EQ(on.delivered, off.delivered);
        EXPECT_EQ(on.dropped, off.dropped);
        EXPECT_GT(on.generated, 0u);
    }
}

TEST(EngineIdentity, FaultedCampaignReportsAreByteIdentical)
{
    // Full chaos campaigns — faults, teardown, retries, watchdog,
    // idle-cycle skipping in the drain — reported as JSON. The report
    // embeds cycle numbers for every violation and heal, so byte
    // equality pins the skip path to the exact per-cycle semantics.
    for (std::uint64_t seed : {11ull, 23ull, 57ull}) {
        chaos::CampaignSpec spec;
        spec.cfg = test::smallConfig(Protocol::TwoPhase, 4);
        spec.cfg.load = 0.05;
        spec.cfg.maxRetries = 4;
        spec.seed = seed;
        spec.injectCycles = 1500;
        spec.drainCycles = 30000;
        spec.verifyCwg = true;
        spec.faults.horizon = 1500;
        spec.faults.earliest = 50;
        spec.faults.nodeKills = 1;
        spec.faults.linkKills = 1;
        spec.faults.intermittents = 2;
        SCOPED_TRACE("seed " + std::to_string(seed));

        spec.cfg.eventEngine = true;
        const chaos::CampaignResult on = chaos::runCampaign(spec);
        spec.cfg.eventEngine = false;
        const chaos::CampaignResult off = chaos::runCampaign(spec);

        EXPECT_EQ(chaos::campaignJson(on), chaos::campaignJson(off));
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.healEvents, off.healEvents);
        EXPECT_EQ(on.violations, off.violations);
    }
}

} // namespace
} // namespace tpnet
