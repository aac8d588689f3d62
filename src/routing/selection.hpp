/**
 * @file
 * Selection-function toolkit shared by the routing protocols
 * (paper Section 2.1: the routing function supplies candidate output
 * virtual channels; the selection function picks one).
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

/** A candidate output virtual channel. */
struct Candidate
{
    int port = -1;
    int vc = -1;
};

/** Safety requirement when filtering candidate channels. */
enum class Safety : std::uint8_t {
    SafeOnly,  ///< healthy and not marked unsafe
    Healthy,   ///< not faulty (unsafe permitted)
};

/**
 * Profitable ports from the probe's position, most-remaining-offset
 * dimension first (the selection heuristic spreads load adaptively).
 */
PortList profitableByOffset(const Network &net, const Message &msg);

/**
 * First free adaptive VC on a profitable channel meeting @p safety,
 * scanning dimensions by decreasing remaining offset.
 */
std::optional<Candidate> adaptiveProfitable(Network &net,
                                            const Message &msg,
                                            Safety safety);

/**
 * Free VC (any partition) on an untried profitable healthy channel —
 * the backtracking protocols' forward step.
 */
std::optional<Candidate> anyVcProfitableUntried(Network &net, Message &msg);

/**
 * Free adaptive VC on an untried profitable healthy channel, safety
 * ignored — the TP detour's forward step (detours use only adaptive
 * channels, Theorem 3).
 */
std::optional<Candidate> anyAdaptiveProfitableUntried(Network &net,
                                                      Message &msg);

/**
 * Free VC on an untried, unprofitable, healthy channel for misrouting.
 * Channels in the same dimension as the probe's arrival channel are
 * preferred (Theorem 2 condition iii); @p adaptive_only restricts the
 * search to the adaptive partition (TP detours use only channels of C2,
 * Theorem 3); @p allow_uturn permits the reverse of the arrival channel
 * ("the header can route using the virtual channels in the opposite
 * direction", Section 4.0).
 */
std::optional<Candidate> misrouteUntried(Network &net, Message &msg,
                                         bool adaptive_only,
                                         bool allow_uturn);

/**
 * Recovery mode's wait on the healthy e-cube port @p ep, which the
 * profitable-port scan may have skipped (dragonfly, express cube): a
 * free VC on it, or nullopt with all its trios reported as candidates.
 */
std::optional<Candidate> recoveryEscape(Network &net, const Message &msg,
                                        int ep);

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
