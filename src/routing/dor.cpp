/**
 * @file
 * Deterministic dimension-order (e-cube) wormhole routing on the torus.
 *
 * Messages resolve dimensions in increasing order; each torus ring is
 * made deadlock-free with two dateline VC classes (class 0
 * before the ring's wrap edge, class 1 after). This is the escape
 * structure DP and TP rely on, exposed as a standalone protocol for
 * validation experiments and tests.
 */

#include "core/network.hpp"
#include "routing/selection.hpp"

namespace tpnet {

Decision
route::dimOrder(Network &net, Message &msg)
{
    const int port = net.ecubePort(msg);
    if (port < 0)
        return Decision::eject();
    // DOR is not fault tolerant; a faulty e-cube channel blocks forever
    // (only fault-free validation runs use this protocol).
    if (net.channelFaulty(msg.hdr.cur, port))
        return Decision::block();
    return select::escapeStep(net, msg, port);
}

} // namespace tpnet
