/**
 * @file
 * Unidirectional physical link: a data lane shared demand-driven by the
 * virtual channels' data channels (one data flit per cycle), plus the
 * single multiplexed control lane of Fig. 2(b) (one control flit per
 * cycle) carrying corresponding-channel headers of this direction and
 * complementary-channel control flits of the reverse direction's trios.
 */

#ifndef TPNET_ROUTER_LINK_HPP
#define TPNET_ROUTER_LINK_HPP

#include <cstdint>

#include "router/flit.hpp"
#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * One unidirectional physical link. Its VC trios live in the network's
 * data plane (router/data_plane.hpp) at DataPlane::index(id, vc).
 */
class Link
{
  public:
    LinkId id = invalidLink;
    NodeId src = invalidNode;   ///< upstream router
    NodeId dst = invalidNode;   ///< downstream router
    int srcPort = -1;           ///< output port at src
    int dstPort = -1;           ///< input port at dst

    /** Failed (fault model): no flit of any kind may cross. */
    bool faulty = false;

    /**
     * Structurally absent (mesh wraparound channels): behaves like a
     * permanently faulty link but is not a *failure* — it never marks
     * neighbors unsafe and never triggers recovery.
     */
    bool absent = false;

    /** Unsafe designation (Section 2.4): healthy but adjacent to faults. */
    bool unsafe = false;

    /** Data flits that crossed (statistics; beside the fields a data
     *  move reads, so a move touches one line of the link). */
    std::uint64_t dataCrossings = 0;

    /**
     * Control lane queue: flits waiting to cross this wire (the COBU at
     * src feeding the CIBU at dst). One flit crosses per cycle.
     */
    Fifo<Flit> ctrlQ;

    /**
     * Dedicated acknowledgment lane (only used when the hardware-ack
     * design of SimConfig::hardwareAcks is enabled): acknowledgment
     * flits cross here, one per cycle, without competing with headers
     * for the multiplexed control lane.
     */
    Fifo<Flit> ackQ;

    // --- Statistics --------------------------------------------------------
    std::uint64_t ctrlCrossings = 0;
    std::size_t maxCtrlDepth = 0;

    void
    init(LinkId id_, NodeId src_, int src_port, NodeId dst_, int dst_port)
    {
        id = id_;
        src = src_;
        srcPort = src_port;
        dst = dst_;
        dstPort = dst_port;
    }
};

} // namespace tpnet

#endif // TPNET_ROUTER_LINK_HPP
