/**
 * @file
 * Duato's Protocol (DP) [12]: fully adaptive, minimal, deadlock-free
 * wormhole routing. VCs are partitioned into an
 * unrestricted adaptive set (any minimal direction, any time) and a
 * deterministic escape set (dimension-order with dateline classes). A
 * blocked header waits; if an adaptive channel frees before the escape
 * channel does, the header is free to take it — exactly the behavior of
 * the paper's selection function (Section 4.0).
 *
 * PCS shares DP's candidate selection and SR searches the same
 * candidates with backtracking; both move their probes over the control
 * lane with PCS / SR(K) flow control (Fig. 1), for the Section 2.2
 * latency-model experiments and as building blocks.
 */

#include "core/network.hpp"
#include "routing/selection.hpp"

namespace tpnet {

Decision
route::duato(Network &net, Message &msg)
{
    const select::Scan adaptive{.vcFloor = net.adaptiveVcFloor()};
    if (auto c = select::firstFree(
            net, msg, select::profitableByOffset(net, msg), adaptive))
        return Decision::forward(c->port, c->vc);

    const int ep = net.ecubePort(msg);
    if (ep < 0)
        return Decision::eject();
    if (net.channelFaulty(msg.hdr.cur, ep)) {
        // DP itself is not fault tolerant: there is no detour and no
        // backtracking, so a faulty escape channel is a wait that can
        // never be satisfied. Blocking here would wedge the header (and
        // everything queued behind its circuit) forever — the stall
        // limit never fires because DP headers legitimately wait
        // unboundedly on *busy* escapes. Abort instead: recovery tears
        // the partial circuit down and the message retries or is
        // counted undeliverable.
        return Decision::abort();
    }
    if (net.config().recoveryMode) {
        // Recovery mode: the escape VCs join the adaptive scan above
        // (adaptiveVcFloor() == 0), and the knot detector heals any
        // deadlock that forms. The scan may have skipped the e-cube
        // port (not profitable on a dragonfly or express cube): take a
        // free VC on it, or wait with all its trios as candidates.
        if (auto c = select::firstFree(net, msg, PortList(ep), adaptive))
            return Decision::forward(c->port, c->vc);
        return Decision::block();
    }
    // A busy escape is re-polled (with the adaptive set) every cycle,
    // so the decision can never go stale — but the wait on the escape
    // class is a CWG edge that must stay cycle-free.
    return select::escapeStep(net, msg, ep);
}

Decision
route::scouting(Network &net, Message &msg)
{
    // SR [13] is fully adaptive and fault tolerant: the scouting
    // distance K keeps the probe free to backtrack up to the leading
    // data flit, so faulty channels are searched around with a
    // history-guided depth-first retreat (no misrouting — SR relies on
    // full adaptivity plus backtracking).
    const PortList ports = select::profitableByOffset(net, msg);
    if (auto c = select::firstFree(
            net, msg, ports,
            {.skipTried = true, .vcFloor = net.adaptiveVcFloor()}))
        return Decision::forward(c->port, c->vc);

    const int ep = net.ecubePort(msg);
    const std::uint32_t tried = net.triedHere(msg);
    // Recovery mode folds the escape VCs into the adaptive scan above,
    // so the escape-class fallback disappears; the untried-healthy
    // wait and the backtracking search below still apply unchanged.
    // A healthy but busy escape channel is waited on.
    if (!net.config().recoveryMode &&
        !net.channelFaulty(msg.hdr.cur, ep) &&
        !(tried & (1u << ep))) {
        return select::escapeStep(net, msg, ep);
    }

    // An untried healthy profitable channel that is merely busy is
    // worth waiting for before giving ground.
    for (int port : ports) {
        if (!(tried & (1u << port)) &&
            !net.channelFaulty(msg.hdr.cur, port)) {
            return Decision::block();
        }
    }

    // Every remaining way forward is faulty or already searched.
    if (net.canBacktrack(msg))
        return Decision::backtrack();
    if (msg.path.empty())
        return Decision::abort();
    return Decision::block();  // the stall limit hands off to recovery
}

} // namespace tpnet
