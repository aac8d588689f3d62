/**
 * @file
 * The Two-Phase (TP) fault-tolerant routing protocol — Fig. 6 of the
 * paper, implemented clause by clause.
 *
 * Phase 1 (optimistic): DP routing restrictions over safe channels with
 * WR-like flow control (K = 0, no acknowledgments). Safe adaptive
 * channels are preferred; a busy-but-healthy safe deterministic channel
 * blocks the probe (an adaptive channel freeing first may still be
 * taken, because the RCU re-evaluates every cycle).
 *
 * Transition: when the deterministic channel is faulty or unsafe, the
 * probe may take an unsafe profitable adaptive channel or the unsafe
 * deterministic channel; doing so sets the SR bit and switches the
 * message to scouting flow control — every subsequently reserved
 * VC is programmed with scouting distance K (aggressive
 * configurations keep K = 0 and send no acknowledgments at all).
 *
 * Phase 2 (conservative): when the probe can no longer advance it sets
 * the detour bit: positive acknowledgments stop, the data flits freeze
 * where they stand, and the probe performs a depth-first backtracking
 * search using only adaptive channels (Theorem 3) with at most m
 * outstanding misroutes, preferring misrouting over backtracking and
 * same-dimension misroutes (Theorem 2); U-turns through the
 * opposite-direction VCs are permitted. The detour
 * completes when every misroute has been corrected or the destination
 * is reached; a release then re-opens the held gates ("all channels (or
 * none) in a detour are accepted").
 */

#include "core/network.hpp"
#include "routing/selection.hpp"

namespace tpnet {

Decision
route::twoPhase(Network &net, Message &msg)
{
    HeaderState &hdr = msg.hdr;
    const int floor = net.adaptiveVcFloor();

    if (!hdr.detour) {
        // --- Phase 1: DP routing restrictions with unsafe channels ----
        // 1. Safe profitable adaptive channel.
        const PortList ports = select::profitableByOffset(net, msg);
        if (auto c = select::firstFree(
                net, msg, ports, {.skipUnsafe = true, .vcFloor = floor}))
            return Decision::forward(c->port, c->vc);

        const int ep = net.ecubePort(msg);
        // On an express cube the local e-cube hop is not minimal, so a
        // profitable adaptive hop can bring the probe back to a node
        // its own circuit left by the escape channel. That trio frees
        // only with the circuit: waiting on it would wedge the probe on
        // itself, so it counts as faulty.
        const bool ep_own =
            net.vc(net.linkAt(hdr.cur, ep).id, net.escapeClass(msg, ep))
                .owner == msg.id;
        const bool ep_faulty = ep_own || net.channelFaulty(hdr.cur, ep);
        const bool ep_unsafe = !ep_faulty && net.channelUnsafe(hdr.cur, ep);

        // 2. Safe deterministic channel; block while it is merely busy.
        //    Recovery mode folds the escape VCs into step 1's adaptive
        //    scan (adaptiveVcFloor() == 0), so a healthy safe e-cube
        //    port means "wait" (a knot that forms is healed, not
        //    avoided) — unless the port was never scanned because it is
        //    not profitable and has a free VC.
        if (!ep_faulty && !ep_unsafe) {
            if (!net.config().recoveryMode)
                return select::escapeStep(net, msg, ep);
            if (auto c = select::firstFree(net, msg, PortList(ep),
                                           {.vcFloor = floor}))
                return Decision::forward(c->port, c->vc);
            return Decision::block();
        }

        // 3. Unsafe profitable adaptive channel -> switch to SR mode.
        if (auto c = select::firstFree(net, msg, ports, {.vcFloor = floor})) {
            net.enterSrMode(msg);
            return Decision::forward(c->port, c->vc);
        }

        // 4. Unsafe deterministic channel -> switch to SR mode.
        //    (Recovery mode: subsumed by step 3's full-range scan.)
        if (!net.config().recoveryMode && ep_unsafe &&
            net.escapeVcFree(msg, ep)) {
            net.enterSrMode(msg);
            return Decision::forward(ep, net.escapeClass(msg, ep));
        }

        // 5. The probe can no longer advance: construct a detour.
        net.enterSrMode(msg);
        net.enterDetour(msg);
    }

    // Detour step: route with no restrictions, over adaptive channels
    // only.
    if (auto c = select::firstFree(net, msg,
                                   select::profitableByOffset(net, msg),
                                   {.skipTried = true, .vcFloor = floor}))
        return Decision::forward(c->port, c->vc);

    if (hdr.misroutes < net.config().misrouteLimit) {
        if (auto c = select::misrouteUntried(net, msg, true, true))
            return Decision::forward(c->port, c->vc);
    }

    // Backtrack, or wait for a channel to free: the stall limit hands
    // the message to the recovery mechanism ("the recovery mechanism
    // will tear down the path", Section 4.0).
    return select::exhausted(net, msg);
}

} // namespace tpnet
