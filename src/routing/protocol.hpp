/**
 * @file
 * The routing protocol: one table row per Protocol, and the flow
 * control policy that follows from the message's own flow mode.
 *
 * The RCU consults the configured protocol once per serviced header.
 * The route function inspects the network (channel status, unsafe
 * bits, VC occupancy) and the probe's header state, possibly flips the
 * header's mode bits (SR, detour — Section 4.0), and returns a decision.
 * The Network applies the decision: it reserves/releases trios, moves the
 * probe, spawns acknowledgment flits, and maintains the Theorem 2
 * misroute bookkeeping.
 *
 * Flow control is a setting, not a protocol (Sections 2.2 and 4.0):
 * a row names the flow mode a setup attempt starts under and whether
 * the header travels inline; the scouting distance, the positive
 * acknowledgments and the stall abort then follow from the message's
 * current flow mode and detour bit alone.
 */

#ifndef TPNET_ROUTING_PROTOCOL_HPP
#define TPNET_ROUTING_PROTOCOL_HPP

#include "core/message.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace tpnet {

class Network;

/** Outcome of one RCU routing-service slot for one header. */
struct Decision
{
    enum class Kind : std::uint8_t {
        Forward,   ///< reserve (port, vc) and advance the probe
        Eject,     ///< probe is at the destination; complete the path
        Block,     ///< wait in place; re-try next service slot
        Backtrack, ///< release the last hop and retreat one node
        Abort,     ///< give up this setup attempt (tear down, re-try)
    };

    Kind kind = Kind::Block;
    int port = -1;  ///< output port for Forward
    int vc = -1;    ///< output VC for Forward

    static Decision
    forward(int port, int vc)
    {
        return {Kind::Forward, port, vc};
    }

    static Decision eject() { return {Kind::Eject, -1, -1}; }
    static Decision block() { return {Kind::Block, -1, -1}; }
    static Decision backtrack() { return {Kind::Backtrack, -1, -1}; }
    static Decision abort() { return {Kind::Abort, -1, -1}; }
};

/**
 * The protocols' routing functions. Each decides the next action for
 * @p msg whose probe sits at msg.hdr.cur, and may mutate msg.hdr mode
 * bits.
 */
namespace route {

/** DOR: deterministic e-cube wormhole routing (dor.cpp). */
Decision dimOrder(Network &net, Message &msg);
/** DP [12] and PCS [18]: adaptive first, then escape (duato.cpp). */
Decision duato(Network &net, Message &msg);
/** SR [13]: adaptive search with history-guided backtracking. */
Decision scouting(Network &net, Message &msg);
/** MB-m [17]: misrouting backtracking search (mbm.cpp). */
Decision mbm(Network &net, Message &msg);
/** TP, Fig. 6 (two_phase.cpp). */
Decision twoPhase(Network &net, Message &msg);

} // namespace route

/** One protocol's row of the protocol table. */
struct ProtocolRow
{
    FlowMode initialFlow;  ///< flow control a setup attempt starts under
    bool inlineHeader;     ///< header travels inline on the data lanes
    Decision (*route)(Network &, Message &);
};

/** The configured protocol: its table row plus the scouting distance. */
class RoutingProtocol
{
  public:
    explicit RoutingProtocol(const SimConfig &cfg);

    FlowMode initialFlow() const { return row_.initialFlow; }
    bool inlineHeader() const { return row_.inlineHeader; }

    Decision
    route(Network &net, Message &msg) const
    {
        return row_.route(net, msg);
    }

    /**
     * Scouting distance to program into the next reserved trio for
     * @p msg (the dynamically configurable K of Section 4.0): K while
     * the message scouts — SR always, TP once it entered SR mode.
     */
    int
    kRegFor(const Message &msg) const
    {
        return msg.hdr.flow == FlowMode::Scout ? scoutK_ : 0;
    }

    /**
     * Whether the probe's advance over a newly reserved channel emits a
     * positive acknowledgment: only with K > 0, and never in detour
     * mode (Section 4.0).
     */
    bool
    emitsPosAck(const Message &msg) const
    {
        return kRegFor(msg) > 0 && !msg.hdr.detour;
    }

    /**
     * Whether a probe blocked for the stall limit abandons the setup
     * attempt (tear down and re-try from the source): every flow but
     * wormhole, and any detour. A blocked WR header simply waits.
     */
    bool
    abortsOnStall(const Message &msg) const
    {
        return msg.hdr.flow != FlowMode::Wormhole || msg.hdr.detour;
    }

  private:
    ProtocolRow row_;
    int scoutK_;
};

} // namespace tpnet

#endif // TPNET_ROUTING_PROTOCOL_HPP
