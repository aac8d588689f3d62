/**
 * @file
 * Trace-level property tests over randomized configurations.
 *
 * Two invariants are checked on recorded traces rather than live state,
 * so they hold for anything a trace file can describe:
 *
 *  - Section 2.2 scout gap: a data flit never trails the header by
 *    fewer than K positive acknowledgments (fault-free scouting runs).
 *  - VC conservation: every VC allocation is matched by exactly one
 *    release, and a drained run ends with no VC held.
 */

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "obs/recorder.hpp"
#include "obs/replay.hpp"

namespace tpnet::obs {
namespace {

/** Small, quick base config the randomized cases perturb. */
SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 2;
    cfg.msgLength = 8;
    cfg.load = 0.15;
    cfg.warmup = 0;
    cfg.measure = 1;
    return cfg;
}

RecordSpec
randomSpec(std::mt19937_64 &rng)
{
    RecordSpec spec;
    spec.cfg = baseConfig();
    spec.cfg.k = 4 + 2 * static_cast<int>(rng() % 2);       // 4 or 6
    spec.cfg.msgLength = 4 + static_cast<int>(rng() % 13);  // 4..16
    spec.cfg.load = 0.05 + 0.05 * static_cast<double>(rng() % 4);
    spec.cfg.bufDepth = 2 + static_cast<int>(rng() % 3);
    spec.cfg.seed = rng();
    spec.cycles = 200 + static_cast<Cycle>(rng() % 200);
    return spec;
}

TEST(TraceProperties, ScoutGapHoldsOnRandomFaultFreeScoutingRuns)
{
    std::mt19937_64 rng(0xb5c075ull);
    for (int iter = 0; iter < 8; ++iter) {
        RecordSpec spec = randomSpec(rng);
        spec.cfg.protocol = Protocol::Scouting;
        spec.cfg.scoutK = 1 + static_cast<int>(rng() % 5);  // K in 1..5
        SCOPED_TRACE(testing::Message()
                     << "iter " << iter << " K=" << spec.cfg.scoutK
                     << " seed=" << spec.cfg.seed);

        const TraceRecorder rec = recordRun(spec);
        const CheckResult gap =
            checkScoutGap(rec.events(), spec.cfg.scoutK);
        EXPECT_TRUE(gap.ok) << gap.error;
        EXPECT_GT(gap.checked, 0u);
    }
}

TEST(TraceProperties, VcBalanceHoldsAcrossProtocols)
{
    const Protocol protocols[] = {Protocol::Duato, Protocol::Scouting,
                                  Protocol::TwoPhase};
    std::mt19937_64 rng(0xacc0137ull);
    for (Protocol p : protocols) {
        for (int iter = 0; iter < 4; ++iter) {
            RecordSpec spec = randomSpec(rng);
            spec.cfg.protocol = p;
            if (p == Protocol::Scouting)
                spec.cfg.scoutK = 1 + static_cast<int>(rng() % 5);
            SCOPED_TRACE(testing::Message()
                         << protocolName(p) << " iter " << iter
                         << " seed=" << spec.cfg.seed);

            const TraceRecorder rec = recordRun(spec);
            const CheckResult bal = checkVcBalance(rec.events());
            EXPECT_TRUE(bal.ok) << bal.error;
            EXPECT_GT(bal.checked, 0u);
        }
    }
}

TEST(TraceProperties, VcBalanceHoldsUnderStaticFaults)
{
    std::mt19937_64 rng(0xfa017ull);
    for (int iter = 0; iter < 4; ++iter) {
        RecordSpec spec = randomSpec(rng);
        spec.cfg.protocol = Protocol::TwoPhase;
        spec.cfg.staticLinkFaults = 1 + static_cast<int>(rng() % 3);
        SCOPED_TRACE(testing::Message()
                     << "iter " << iter << " faults="
                     << spec.cfg.staticLinkFaults
                     << " seed=" << spec.cfg.seed);

        const TraceRecorder rec = recordRun(spec);
        const CheckResult bal = checkVcBalance(rec.events());
        EXPECT_TRUE(bal.ok) << bal.error;
    }
}

TEST(TraceProperties, VcBalanceHoldsThroughDynamicKill)
{
    // A mid-run node kill tears circuits down the hard way
    // (killAffectedCircuits): releases must still balance once drained.
    std::mt19937_64 rng(0xdeadull);
    for (int iter = 0; iter < 3; ++iter) {
        RecordSpec spec = randomSpec(rng);
        spec.cfg.protocol = Protocol::TwoPhase;
        const NodeId victim = static_cast<NodeId>(rng() % spec.cfg.nodes());
        const Cycle at = 50 + static_cast<Cycle>(rng() % 100);
        spec.faults = {{at, FaultKind::NodeKill, victim}};
        SCOPED_TRACE(testing::Message()
                     << "iter " << iter << " kill node " << victim
                     << " at " << at
                     << " seed=" << spec.cfg.seed);

        const TraceRecorder rec = recordRun(spec);
        const CheckResult bal = checkVcBalance(rec.events());
        EXPECT_TRUE(bal.ok) << bal.error;
    }
}

TEST(TraceProperties, CheckersRejectCorruptedTraces)
{
    RecordSpec spec;
    spec.cfg = baseConfig();
    spec.cfg.protocol = Protocol::Scouting;
    spec.cfg.scoutK = 3;
    spec.cfg.seed = 31337;
    const TraceRecorder rec = recordRun(spec);
    ASSERT_TRUE(checkVcBalance(rec.events()).ok);

    // Drop the last release: the balance checker must notice.
    std::vector<TraceEvent> truncated = rec.events();
    for (std::size_t i = truncated.size(); i-- > 0;) {
        if (truncated[i].kind == TraceEventKind::VcReleased) {
            truncated.erase(truncated.begin() + static_cast<long>(i));
            break;
        }
    }
    ASSERT_LT(truncated.size(), rec.size());
    EXPECT_FALSE(checkVcBalance(truncated).ok);

    // Duplicate an allocation while the trio is still held: the very
    // next cycle a second message claims the same (link, vc).
    std::vector<TraceEvent> doubled = rec.events();
    for (std::size_t i = 0; i < doubled.size(); ++i) {
        if (doubled[i].kind == TraceEventKind::VcAllocated) {
            TraceEvent dup = doubled[i];
            dup.msg = doubled[i].msg + 1;
            doubled.insert(doubled.begin() + static_cast<long>(i) + 1,
                           dup);
            break;
        }
    }
    ASSERT_GT(doubled.size(), rec.size());
    EXPECT_FALSE(checkVcBalance(doubled, /*require_drained=*/false).ok);
}

TEST(TraceProperties, ReplayedTimeSpaceMatchesLiveDiagram)
{
    // Replaying a recorded trace must reproduce the same time-space
    // diagram a live TimeSpaceTrace would have drawn for that message.
    RecordSpec spec;
    spec.cfg = baseConfig();
    spec.cfg.protocol = Protocol::Scouting;
    spec.cfg.scoutK = 2;
    spec.cfg.seed = 777;
    const TraceRecorder rec = recordRun(spec);

    MsgId target = invalidMsg;
    for (const TraceEvent &ev : rec.events()) {
        if (ev.kind == TraceEventKind::MsgTerminal
            && ev.detail == static_cast<std::uint8_t>(MsgOutcome::Delivered)) {
            target = ev.msg;
            break;
        }
    }
    ASSERT_NE(target, invalidMsg) << "no delivered message in trace";

    const TimeSpaceTrace ts = replayTimeSpace(rec.events(), target);
    EXPECT_GT(ts.events(), 0u);
    EXPECT_FALSE(ts.render().empty());
    // With no explicit target, replay picks the first delivered message
    // — which is exactly the one found above.
    const TimeSpaceTrace auto_ts = replayTimeSpace(rec.events());
    EXPECT_EQ(auto_ts.events(), ts.events());
    EXPECT_EQ(auto_ts.render(), ts.render());
}

} // namespace
} // namespace tpnet::obs
