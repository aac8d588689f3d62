/**
 * @file
 * Flit types — the smallest units of flow control (paper Section 2.1).
 *
 * Data and tail flits travel on data lanes through the virtual channel
 * trios' data channels. Everything else is control traffic and travels on
 * the single multiplexed control lane of each physical link direction
 * (Fig. 2b): routing headers on the corresponding channels, and
 * acknowledgments / kill / release flits on the complementary channels.
 */

#ifndef TPNET_ROUTER_FLIT_HPP
#define TPNET_ROUTER_FLIT_HPP

#include <cstdint>

#include "sim/types.hpp"

namespace tpnet {

/** What a flit is; determines which lane it uses and how it is handled. */
enum class FlitType : std::uint8_t {
    Header,   ///< routing probe (forward or backtracking)
    Data,     ///< payload flit
    Tail,     ///< last payload flit; releases channels as it passes
    AckPos,   ///< positive SR acknowledgment, walks upstream (Section 2.2)
    AckNeg,   ///< negative SR acknowledgment (backtrack), walks upstream
    PathDone, ///< destination-reached acknowledgment (PCS setup ack; also
              ///< opens residual SR gates on paths shorter than K)
    Release,  ///< detour-complete release, re-opens held gates (Section 4.0)
    KillUp,   ///< kill flit walking toward the source (Fig. 16)
    KillDown, ///< kill flit walking toward the destination (Fig. 16)
    MsgAck,   ///< end-to-end message acknowledgment ("TAck", Fig. 17)
};

/** @return true for flit types that use the data lanes. */
constexpr bool
isDataLane(FlitType t)
{
    return t == FlitType::Data || t == FlitType::Tail;
}

/** @return true for control flits that walk upstream along a path. */
constexpr bool
walksUpstream(FlitType t)
{
    return t == FlitType::AckPos || t == FlitType::AckNeg ||
           t == FlitType::PathDone || t == FlitType::Release ||
           t == FlitType::KillUp || t == FlitType::MsgAck;
}

/**
 * @return true for SR acknowledgment-class flits — the ones that move
 * to dedicated control signals under the hardware-acknowledgment
 * design of the paper's conclusion (SimConfig::hardwareAcks).
 */
constexpr bool
isAckClass(FlitType t)
{
    return t == FlitType::AckPos || t == FlitType::AckNeg ||
           t == FlitType::PathDone || t == FlitType::Release;
}

/**
 * A flow control digit.
 *
 * Control flits navigate using (msg, hopIdx): hopIdx is the index into the
 * owning message's path of the hop whose upstream (for upstream walkers)
 * or downstream (for KillDown) router the flit will reach on its next
 * move. Inline wormhole headers (DP) are Header flits inside data FIFOs.
 */
struct Flit
{
    MsgId msg = invalidMsg;
    /** Earliest cycle this flit may (next) cross a lane. */
    Cycle readyAt = 0;
    /** Payload sequence number, 1..L (tail carries L); 0 for headers. */
    std::int32_t seq = 0;
    /** Path hop index used by control flits while walking a path. */
    std::int32_t hopIdx = 0;
    /** Setup-attempt epoch of the owning message at spawn time. */
    std::int32_t epoch = 0;
    FlitType type = FlitType::Data;
};

// Wide fields first: 32 bytes, so a 4-deep DIBU spans two cache lines.
static_assert(sizeof(Flit) == 32, "Flit packs into 32 bytes");

/** Short name for tracing. */
const char *flitTypeName(FlitType t);

} // namespace tpnet

#endif // TPNET_ROUTER_FLIT_HPP
