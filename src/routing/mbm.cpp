/**
 * @file
 * MB-m: misrouting backtracking protocol with m misroutes [17], the
 * paper's conservative (PCS) baseline.
 *
 * The probe performs a depth-first search: profitable channels are
 * preferred; when none is available (faulty or busy) the probe misroutes
 * as long as fewer than m misroutes are outstanding, preferring the
 * dimension it arrived on; otherwise it backtracks, releasing the last
 * trio and sending a negative acknowledgment. Since data is held at the
 * source until the path is completely established (PCS), the probe can
 * always backtrack, making the protocol deadlock-free and extremely
 * robust at the price of the 3l setup latency (Section 2.2).
 */

#include "core/network.hpp"
#include "routing/selection.hpp"

namespace tpnet {

Decision
route::mbm(Network &net, Message &msg)
{
    // 1. Profitable, untried, healthy channel with a free VC.
    if (auto c = select::firstFree(net, msg,
                                   select::profitableByOffset(net, msg),
                                   {.skipTried = true, .vcFloor = 0}))
        return Decision::forward(c->port, c->vc);

    // 2. Misroute while the outstanding-misroute budget allows; the
    //    search may use every VC (PCS needs no escape structure) and
    //    may not U-turn (backtracking covers retreat).
    if (msg.hdr.misroutes < net.config().misrouteLimit) {
        if (auto c = select::misrouteUntried(net, msg, false, false))
            return Decision::forward(c->port, c->vc);
    }

    // 3. Backtrack (always possible under PCS: no data in the network);
    //    at the source with everything searched, re-try later.
    return select::exhausted(net, msg);
}

} // namespace tpnet
