/**
 * @file
 * Virtual channel trio state (paper Section 2.3, Fig. 2).
 *
 * Each unidirectional virtual channel is a trio (data, corresponding,
 * complementary). The data channel is realized as the DIBU FIFO at the
 * downstream router; the corresponding channel carries the routing header
 * over the multiplexed control lane; the complementary channel carries
 * acknowledgment/kill flits in the opposite direction (on the reverse
 * wire's control lane). The per-VC CMU counter and programmable K register
 * of Section 5.0 live here as well.
 */

#ifndef TPNET_ROUTER_CHANNEL_HPP
#define TPNET_ROUTER_CHANNEL_HPP

#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * State of one virtual channel trio on one unidirectional link.
 *
 * The crossbar mapping (outPort, outVc) is the state the downstream
 * router's RCU programs when it routes the circuit's header onward:
 * data flits at the head of this VC's DIBU move through the downstream
 * crossbar to (outPort, outVc), or to the local PE when outPort is
 * ejectPort.
 *
 * This is the hot record of the data plane (router/data_plane.hpp): 32
 * bytes, two to a cache line, holding everything an arbitration attempt
 * reads to reject a move — occupancy, gate, mapping, owner and the
 * front flit's ready cycle. The DIBU's flit slots live in the plane's
 * arena; `dibu` is this VC's position in its slice.
 */
struct VcState
{
    /** Message whose circuit currently holds this trio. */
    MsgId owner = invalidMsg;

    /** readyAt of the DIBU's front flit (meaningful while non-empty). */
    Cycle frontReady = 0;

    /** CMU acknowledgment counter for the circuit on this channel. */
    int counter = 0;

    /** Programmed scouting distance K for this circuit (Section 5.0). */
    int kReg = 0;

    /** Head and occupancy of the data input buffer (DIBU). */
    RingPos dibu;

    /** Crossbar mapping at the downstream router (valid when routed). */
    std::int8_t outPort = -1;
    std::int8_t outVc = -1;

    /** True once the downstream RCU has routed the circuit onward. */
    bool routed = false;

    /**
     * Detour hold: while set, data flits may not leave this channel even
     * if the counter has reached K ("all channels (or none) in a detour
     * are accepted before the data flits resume progress", Section 4.0).
     */
    bool hold = false;

    /** Flits buffered in the DIBU. */
    std::size_t size() const { return dibu.size(); }
    bool empty() const { return dibu.empty(); }

    /** True when data flits may advance out of this channel. */
    bool
    dataEnabled() const
    {
        return routed && !hold && counter >= kReg;
    }

    /** Reserve the trio for a circuit. */
    void
    reserve(MsgId msg, int k_reg, bool held)
    {
        owner = msg;
        routed = false;
        outPort = -1;
        outVc = -1;
        counter = 0;
        kReg = k_reg;
        hold = held;
    }

    /** Return the trio to the free pool (buffers must be drained/purged). */
    void
    release()
    {
        owner = invalidMsg;
        routed = false;
        outPort = -1;
        outVc = -1;
        counter = 0;
        kReg = 0;
        hold = false;
    }

    bool free() const { return owner == invalidMsg; }
};

static_assert(sizeof(VcState) == 32, "VcState is the 32-byte hot record");

} // namespace tpnet

#endif // TPNET_ROUTER_CHANNEL_HPP
