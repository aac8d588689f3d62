/**
 * @file
 * Duato's Protocol (DP) [12]: fully adaptive, minimal, deadlock-free
 * wormhole routing. Virtual channels are partitioned into an
 * unrestricted adaptive set (any minimal direction, any time) and a
 * deterministic escape set (dimension-order with dateline classes). A
 * blocked header waits; if an adaptive channel frees before the escape
 * channel does, the header is free to take it — exactly the behavior of
 * the paper's selection function (Section 4.0).
 *
 * ScoutingRouting and PcsRouting reuse the same candidate structure but
 * move their probes over the control lane with SR(K) / PCS flow control
 * (Fig. 1); they exist for the Section 2.2 latency-model experiments
 * and as building blocks.
 */

#include "routing/protocols.hpp"

#include "core/network.hpp"
#include "routing/selection.hpp"

namespace tpnet {

namespace {

/** Shared DP-style candidate selection (adaptive first, then escape). */
Decision
duatoSelect(Network &net, Message &msg)
{
    using select::Safety;
    if (auto c = select::adaptiveProfitable(net, msg, Safety::Healthy))
        return Decision::forward(c->port, c->vc);

    const int ep = net.ecubePort(msg);
    if (ep < 0)
        return Decision::eject();
    if (net.config().recoveryMode) {
        // Recovery mode: the escape VCs join the adaptive scan above
        // (adaptiveVcFloor() == 0), and the knot detector heals any
        // deadlock that forms. A faulty e-cube port still aborts: DP
        // has no detour or backtracking.
        if (net.channelFaulty(msg.hdr.cur, ep))
            return Decision::abort();
        if (auto c = select::recoveryEscape(net, msg, ep))
            return Decision::forward(c->port, c->vc);
        return Decision::block();
    }
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
    if (!net.escapeVcFree(msg, ep)) {
        // Busy escape: the RCU re-polls it (and the adaptive set) every
        // cycle, so the decision can never go stale — but the wait on
        // the escape class is a CWG edge that must stay cycle-free.
        net.cwgNoteCandidate(msg.hdr.cur, ep, net.escapeClass(msg, ep));
        return Decision::block();
    }
    return Decision::forward(ep, net.escapeClass(msg, ep));
}

} // namespace

Decision
DuatoRouting::route(Network &net, Message &msg)
{
    return duatoSelect(net, msg);
}

Decision
ScoutingRouting::route(Network &net, Message &msg)
{
    // SR [13] is fully adaptive and fault tolerant: the scouting
    // distance K keeps the probe free to backtrack up to the leading
    // data flit, so faulty channels are searched around with a
    // history-guided depth-first retreat (no misrouting — SR relies on
    // full adaptivity plus backtracking).
    using select::Safety;
    if (auto c = select::anyAdaptiveProfitableUntried(net, msg))
        return Decision::forward(c->port, c->vc);

    const int ep = net.ecubePort(msg);
    const std::uint32_t tried = net.triedHere(msg);
    // Recovery mode folds the escape VCs into the adaptive scan above,
    // so the escape-class fallback disappears; the untried-healthy
    // wait and the backtracking search below still apply unchanged.
    if (!net.config().recoveryMode &&
        !net.channelFaulty(msg.hdr.cur, ep) &&
        !(tried & (1u << ep))) {
        if (net.escapeVcFree(msg, ep))
            return Decision::forward(ep, net.escapeClass(msg, ep));
        net.cwgNoteCandidate(msg.hdr.cur, ep, net.escapeClass(msg, ep));
        return Decision::block();  // healthy but busy: wait
    }

    // An untried healthy profitable channel that is merely busy is
    // worth waiting for before giving ground.
    for (int port : select::profitableByOffset(net, msg)) {
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

Decision
PcsRouting::route(Network &net, Message &msg)
{
    return duatoSelect(net, msg);
}

} // namespace tpnet
