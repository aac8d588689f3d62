/**
 * @file
 * Selection-function toolkit shared by the routing protocols
 * (paper Section 2.1: the routing function supplies candidate output
 * VCs; the selection function picks one).
 */

#ifndef TPNET_ROUTING_SELECTION_HPP
#define TPNET_ROUTING_SELECTION_HPP

#include <optional>

#include "core/message.hpp"
#include "routing/protocol.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace tpnet {

class Network;

namespace select {

/** A candidate output VC. */
struct Candidate
{
    int port = -1;
    int vc = -1;
};

/**
 * What a channel scan skips, and the lowest VC it may take: the three
 * ways the routing steps' scans differ.
 */
struct Scan
{
    bool skipTried = false;   ///< skip ports the history marks tried
    bool skipUnsafe = false;  ///< skip healthy channels marked unsafe
    int vcFloor = 0;          ///< lowest VC: adaptiveVcFloor(), or 0
};

/**
 * Profitable ports from the probe's position, most-remaining-offset
 * dimension first (the selection heuristic spreads load adaptively).
 */
PortList profitableByOffset(const Network &net, const Message &msg);

/**
 * First free VC in [scan.vcFloor, vcCount) on a healthy channel of
 * @p ports that @p scan admits, in list order. Each admitted channel
 * with no free VC reports its trios as CWG candidates, so a Block
 * commits the full candidate set. Only a scan that skips tried ports
 * reads the history frame (Network::triedHere creates it).
 */
std::optional<Candidate> firstFree(Network &net, Message &msg,
                                   const PortList &ports, Scan scan);

/**
 * The escape step on port @p ep: forward on its escape class when
 * that VC is free; otherwise report it as the CWG candidate and block.
 */
Decision escapeStep(Network &net, const Message &msg, int ep);

/**
 * Free VC on an untried, unprofitable, healthy channel for misrouting.
 * Channels in the same dimension as the probe's arrival channel are
 * preferred (Theorem 2 condition iii); @p adaptive_only restricts the
 * search to the adaptive partition (TP detours use only channels of C2,
 * Theorem 3); @p allow_uturn permits the reverse of the arrival channel
 * (Section 4.0: the header may route over the VCs of the opposite
 * direction).
 */
std::optional<Candidate> misrouteUntried(Network &net, Message &msg,
                                         bool adaptive_only,
                                         bool allow_uturn);

/**
 * The backtracking searches' step once no forward move is left:
 * backtrack if possible; otherwise, at the source, wait while an
 * untried healthy port remains (it is merely busy) and abort the
 * attempt when none does; anywhere else, wait (the stall limit hands
 * the message to the recovery mechanism).
 */
Decision exhausted(Network &net, Message &msg);

} // namespace select

} // namespace tpnet

#endif // TPNET_ROUTING_SELECTION_HPP
