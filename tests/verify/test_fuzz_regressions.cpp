/**
 * @file
 * Regressions pinned from the tpnet_verify fuzz campaign.
 *
 * Each campaign test replays a shrunken failing seed exactly as the
 * fuzzer's --replay-seed path would build it. Every seed wedged or
 * crashed before its fix landed; each must now run to quiescence with
 * a clean wait graph.
 *
 *  - seed 36 (DP): duatoSelect blocked forever on a *faulty* escape
 *    channel. DP headers legitimately wait unboundedly on busy
 *    escapes, so the stall limit never fired and the circuit (plus
 *    everything queued behind it) wedged. Fixed by aborting setup
 *    when the escape is faulty and no adaptive candidate exists.
 *
 *  - seed 49 (SR K=2): an upstream Ack walker and the lead data flit
 *    crossed on a wire, so the "stop at the first data flit" test
 *    (Section 5.0) never fired; an AckNeg applied behind the front
 *    decremented counters no later walker could ever reach again,
 *    gating the follower flits below K forever. Fixed by dropping
 *    walkers that fall behind the data front.
 *
 *  - seed 35 (SR K=3, hardware acks; found by the widened grid,
 *    shrunk event-by-event to five scripted faults): the
 *    dedicated ack lane popped one flit per cycle, so an ack walker
 *    could queue behind unrelated circuits' acks and fall behind the
 *    header retreating on the control lane; when the probe re-advanced
 *    and re-acquired a trio at a hop index the stale walker still
 *    addressed, the walker decremented the fresh CMU counter below
 *    zero. Fixed by draining every ready ack flit each cycle —
 *    dedicated per-trio signals do not contend like the shared lane —
 *    which keeps walkers strictly ahead of the retreating header.
 *
 *  - seeds 9 (DP, dragonfly), 86 (TP, dragonfly) and 85 (TP, express
 *    cube), all in recovery mode: see the RecoveryEscape tests below.
 */

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "chaos/fault_schedule.hpp"
#include "helpers.hpp"
#include "router/flit.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;

chaos::CampaignSpec
replaySpec(Protocol proto, int k, int scoutK, double load,
           Cycle inject, std::uint64_t seed, int nodeKills,
           int linkKills, int intermittents)
{
    chaos::CampaignSpec spec;
    spec.cfg.protocol = proto;
    spec.cfg.k = k;
    spec.cfg.n = 2;
    spec.cfg.scoutK = scoutK;
    spec.cfg.load = load;
    spec.cfg.maxRetries = 6;
    spec.seed = seed;
    spec.injectCycles = inject;
    spec.drainCycles = 200000;
    spec.verifyCwg = true;
    spec.faults.horizon = inject;
    spec.faults.earliest = inject / 100;
    spec.faults.nodeKills = nodeKills;
    spec.faults.linkKills = linkKills;
    spec.faults.intermittents = intermittents;
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    return spec;
}

// tpnet_verify --replay-seed 36 --protocol DP --scout-k 0 --k 4
//   --load 0.0500 --inject 2000 --node-kills 2 --link-kills 0
//   --intermittents 3
TEST(FuzzRegressions, DpFaultyEscapeNoLongerWedges)
{
    const chaos::CampaignSpec spec = replaySpec(
        Protocol::Duato, 4, 0, 0.05, 2000, 36, 2, 0, 3);
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 49 --protocol SR --scout-k 2 --k 8
//   --load 0.0500 --inject 8000 --node-kills 4 --link-kills 4
//   --intermittents 6
TEST(FuzzRegressions, SrAckWalkerCrossingRaceNoLongerWedges)
{
    const chaos::CampaignSpec spec = replaySpec(
        Protocol::Scouting, 8, 2, 0.05, 8000, 49, 4, 4, 6);
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 35 --protocol SR --scout-k 3 --k 8 --n 2
//   --hardware-acks --load 0.1500 --inject 1000 --fault-events
//   "84:n:35:-1:0,249:l:28:1:0,381:n:58:-1:0,474:n:5:-1:0,812:n:7:-1:0"
TEST(FuzzRegressions, SrHardwareAckStaleWalkerNoLongerCorruptsCounters)
{
    chaos::CampaignSpec spec = replaySpec(
        Protocol::Scouting, 8, 3, 0.15, 1000, 35, 0, 0, 0);
    spec.cfg.hardwareAcks = true;
    ASSERT_TRUE(chaos::parseFaultEvents(
        "84:n:35:-1:0,249:l:28:1:0,381:n:58:-1:0,474:n:5:-1:0,"
        "812:n:7:-1:0",
        &spec.scriptedFaults));
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 1001 --protocol TP --scout-k 3 --k 8 --n 2
//   --topology torus --tail-ack --load 0.1500 --classes
//   "pattern=uniform,load=0.10,outstanding=2,replylen=4" --inject 4000
//   --node-kills 4 --link-kills 4 --intermittents 6
//
// A message's MsgAck marked it Complete (queued for retirement) in the
// same cycle its outstanding kill walk finished. The walk's completion
// only looked for Delivered, so it took the tail-ack retransmit branch
// and brought the completed message back to life; retiring it then
// panicked with "retiring non-terminal message". A completed message
// now stays terminal.
TEST(FuzzRegressions, TailAckKillWalkKeepsCompletedMessageTerminal)
{
    chaos::CampaignSpec spec = replaySpec(
        Protocol::TwoPhase, 8, 3, 0.15, 4000, 1001, 4, 4, 6);
    spec.cfg.tailAck = true;
    std::string err;
    ASSERT_TRUE(parseTrafficClasses(
        "pattern=uniform,load=0.10,outstanding=2,replylen=4",
        &spec.cfg.trafficClasses, &err))
        << err;
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 78 --protocol TP --scout-k 0 --k 8 --n 2
//   --topology express --express-gap 4 --load 0.1500 --inject 1000
//   --fault-events "21:n:56:-1:0,737:n:5:-1:0,807:n:53:-1:0,807:n:41:-1:0"
//
// On the express cube the local e-cube hop is not minimal. Message 242
// (16->52) took the escape channel 20->28, then a profitable adaptive
// hop straight back to 20, where the express channels to 52 were unsafe
// and the e-cube port was its own escape trio. Phase 1 of TP blocked on
// that trio forever (no wait edge: a circuit waiting on itself). A
// self-held escape trio now counts as faulty, so the probe switches to
// SR mode over the unsafe express channel instead.
TEST(FuzzRegressions, TpExpressCubeProbeNeverWaitsOnItsOwnEscape)
{
    chaos::CampaignSpec spec = replaySpec(
        Protocol::TwoPhase, 8, 0, 0.15, 1000, 78, 0, 0, 0);
    spec.cfg.topology = TopologyKind::Express;
    spec.cfg.expressGap = 4;
    ASSERT_TRUE(chaos::parseFaultEvents(
        "21:n:56:-1:0,737:n:5:-1:0,807:n:53:-1:0,807:n:41:-1:0",
        &spec.scriptedFaults));
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// In recovery mode DP and TP fold the escape VCs into their adaptive
// scan, which only looks at profitable ports. The e-cube port need not
// be one: a dragonfly escape route runs through the group's gateway
// router, and an express cube escapes over local channels. A header
// whose profitable ports were all dead (DP) or unsafe (TP phase 1)
// blocked on its healthy, free e-cube port forever, with no candidate
// reported to the CWG, so the knot detector never saw a wait and the
// watchdog declared a deadlock (seed 9: message 168, 21->26, stuck at
// node 22). The header now takes a free VC on the e-cube port, and
// reports the port's trios as its wait when they are all busy
// (select::firstFree over the e-cube port).
chaos::CampaignSpec
recoverySpec(Protocol proto, TopologyKind topo, double load, Cycle inject,
             std::uint64_t seed, int linkKills)
{
    chaos::CampaignSpec spec =
        replaySpec(proto, 8, 0, load, inject, seed, 0, linkKills, 0);
    spec.cfg.topology = topo;
    spec.cfg.dfRouters = 4;
    spec.cfg.dfGlobal = 2;
    spec.cfg.expressGap = 4;
    spec.cfg.recoveryMode = true;
    spec.cfg.victimPolicy = VictimPolicy::YoungestMessage;
    return spec;
}

// tpnet_verify --replay-seed 9 --protocol DP --scout-k 0 --k 8 --n 2
//   --topology dragonfly --df-routers 4 --df-global 2 --recovery
//   --victim youngest --load 0.1500 --inject 2000 --node-kills 0
//   --link-kills 4 --intermittents 0
TEST(FuzzRegressions, RecoveryEscapeDpDragonflyTakesTheGatewayPort)
{
    const chaos::CampaignResult r = chaos::runCampaign(recoverySpec(
        Protocol::Duato, TopologyKind::Dragonfly, 0.15, 2000, 9, 4));
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 86 --protocol TP --scout-k 0 --k 8 --n 2
//   --topology dragonfly --df-routers 4 --df-global 2 --recovery
//   --victim youngest --load 0.1500 --inject 2000 --node-kills 0
//   --link-kills 4 --intermittents 0
TEST(FuzzRegressions, RecoveryEscapeTpDragonflyTakesTheGatewayPort)
{
    const chaos::CampaignResult r = chaos::runCampaign(recoverySpec(
        Protocol::TwoPhase, TopologyKind::Dragonfly, 0.15, 2000, 86, 4));
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

// tpnet_verify --replay-seed 85 --protocol TP --scout-k 0 --k 8 --n 2
//   --topology express --express-gap 4 --recovery --victim youngest
//   --load 0.0750 --inject 500 --fault-events
//   "263:n:16:-1:0,309:n:25:-1:0,426:n:11:-1:0"
TEST(FuzzRegressions, RecoveryEscapeTpExpressCubeTakesTheLocalPort)
{
    chaos::CampaignSpec spec = recoverySpec(
        Protocol::TwoPhase, TopologyKind::Express, 0.075, 500, 85, 0);
    ASSERT_TRUE(chaos::parseFaultEvents(
        "263:n:16:-1:0,309:n:25:-1:0,426:n:11:-1:0", &spec.scriptedFaults));
    const chaos::CampaignResult r = chaos::runCampaign(spec);
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.cwgViolations, 0u);
}

/**
 * Deterministic distillation of the seed-35 wedge's mechanism: the
 * dedicated acknowledgment signals are per-trio wires, so every ready
 * ack flit on a link must cross in the same cycle. The shared control
 * lane, by contrast, stays one flit per cycle (Fig. 2b). Before the
 * fix the ack lane also moved one per cycle, and the queueing delay is
 * what let stale walkers fall behind a retreating header.
 */
TEST(FuzzRegressions, DedicatedAckSignalsDrainAllReadyFlitsPerCycle)
{
    SimConfig cfg = smallConfig(Protocol::Scouting);
    cfg.hardwareAcks = true;
    Network net(cfg);

    // Stale flits of a retired message: dropped on arrival (no owner),
    // but each still consumes a crossing when its lane moves it.
    Flit ack;
    ack.type = FlitType::AckPos;
    ack.msg = invalidMsg;
    ack.readyAt = 0;
    Link &wire = net.link(0);
    for (int i = 0; i < 3; ++i)
        wire.ackQ.push_back(ack);
    Flit hdr = ack;
    hdr.type = FlitType::Header;
    for (int i = 0; i < 2; ++i)
        wire.ctrlQ.push_back(hdr);
    // The queues were mutated behind the network's back; re-derive the
    // event engine's ready sets so the wire is visited.
    net.rebuildActivity();

    net.step();
    // All three acks drained at once; only one control flit moved.
    EXPECT_EQ(net.counters().ctrlCrossings, 4u);
    EXPECT_TRUE(wire.ackQ.empty());
    EXPECT_EQ(wire.ctrlQ.size(), 1u);

    net.step();
    EXPECT_EQ(net.counters().ctrlCrossings, 5u);
    EXPECT_TRUE(wire.ctrlQ.empty());
}

/**
 * Deterministic distillation of the DP wedge: a message whose only
 * minimal direction is +X hits a faulty escape channel mid-path.
 * Adaptive candidates (the healthy scan) skip the faulty channel, the
 * escape IS the faulty channel, and DP cannot backtrack or misroute —
 * before the fix the header blocked forever (Active, no wait edges,
 * invisible to the stall limit). Now it aborts, retries against the
 * same fault, and is finally dropped as undeliverable.
 */
TEST(FuzzRegressions, DpAbortsSetupOnFaultyEscapeChannel)
{
    SimConfig cfg = smallConfig(Protocol::Duato);
    cfg.watchdog = 0;
    cfg.verifyCwg = true;
    Network net(cfg);

    // Cut the 1 -> 2 wire: every minimal route 0 -> 3 crosses it.
    const int links = net.topo().links();
    bool cut = false;
    for (LinkId l = 0; l < links; ++l) {
        const Link &lk = net.link(l);
        if (lk.src == 1 && lk.dst == 2) {
            net.failLink(lk.src, lk.srcPort);
            cut = true;
            break;
        }
    }
    ASSERT_TRUE(cut);

    net.offerMessage(0, 3);
    EXPECT_TRUE(runToQuiescent(net, 50000));
    const Counters &ctr = net.counters();
    EXPECT_EQ(ctr.delivered, 0u);
    EXPECT_EQ(ctr.dropped, 1u);
    ASSERT_NE(net.cwg(), nullptr);
    EXPECT_TRUE(net.cwg()->violations().empty());
    EXPECT_EQ(net.cwg()->edgeCount(), 0u);
}

} // namespace
} // namespace tpnet
