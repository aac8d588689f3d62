/**
 * @file
 * Kill/backtrack race: a link failure catching a *backtracking* header
 * mid-wire.
 *
 * A retreating probe has already released its frontier hop, so the
 * ownership sweep of killAffectedCircuits cannot see the message on the
 * failing wire — only control-queue salvage can. Before the salvage
 * path learned about Header flits, the flit was destroyed silently and
 * the circuit stayed Active forever with no probe and no RCU entry.
 * This test hunts the exact race deterministically: it watches the
 * control queues for a backtracking header and fails that very wire
 * under it, then requires full recovery, conservation, and a clean
 * wait graph.
 */

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "verify/cwg.hpp"

namespace tpnet {
namespace {

using test::runToQuiescent;
using test::smallConfig;

/**
 * Find a link whose control queue holds a header of a message that is
 * currently retreating, or invalidLink.
 */
LinkId
findRetreatingHeader(Network &net)
{
    const int links = net.topo().links();
    for (LinkId l = 0; l < links; ++l) {
        Link &lk = net.link(l);
        if (lk.faulty || lk.absent)
            continue;
        for (std::size_t i = 0; i < lk.ctrlQ.size(); ++i) {
            const Flit &flit = lk.ctrlQ[i];
            if (flit.type != FlitType::Header)
                continue;
            const Message *msg = net.findMessage(flit.msg);
            if (msg && msg->hdr.backtrack)
                return l;
        }
    }
    return invalidLink;
}

TEST(KillRace, BacktrackingHeaderOnFailingWireIsSalvaged)
{
    // Scouting probes backtrack constantly around faults; load plus a
    // few static faults keeps retreating headers on the wires.
    SimConfig cfg = smallConfig(Protocol::Scouting, 8, 2);
    cfg.scoutK = 2;
    cfg.msgLength = 16;
    cfg.load = 0.2;
    cfg.staticLinkFaults = 6;
    cfg.watchdog = 0;  // report through counters, not panic
    cfg.verifyCwg = true;
    cfg.seed = 11;

    Network net(cfg);
    Injector inj(net);

    int kills = 0;
    for (int c = 0; c < 6000; ++c) {
        if (kills < 4) {
            const LinkId victim = findRetreatingHeader(net);
            if (victim != invalidLink) {
                const Link &lk = net.link(victim);
                net.failLink(lk.src, lk.srcPort);
                ++kills;
            }
        }
        inj.step();
        net.step();
    }
    inj.stop();

    // The race must have been provoked (otherwise the test tests
    // nothing) and every hit salvaged into a kill walk.
    ASSERT_GT(kills, 0);
    EXPECT_GE(net.counters().headersSalvaged,
              static_cast<std::uint64_t>(1));

    // Full recovery: no stranded circuit may survive the drain.
    EXPECT_TRUE(runToQuiescent(net, 200000));
    const Counters &ctr = net.counters();
    EXPECT_EQ(ctr.delivered + ctr.dropped + ctr.lost, ctr.generated);

    // And the analyzer agrees: no phantom wait edges left behind by
    // killed walkers, no Theorem 3 violation manufactured by the race.
    ASSERT_NE(net.cwg(), nullptr);
    EXPECT_EQ(net.cwg()->edgeCount(), 0u);
    EXPECT_TRUE(net.cwg()->violations().empty())
        << net.cwg()->violations().front().diagnosis;
}

} // namespace
} // namespace tpnet
