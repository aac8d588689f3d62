/**
 * @file
 * Routing header state and the 6-field header flit format of Fig. 9.
 *
 * HeaderState is the live state of a message's routing probe: where it
 * is, its mode bits (backtrack / detour / SR), the outstanding misroute
 * bookkeeping of Theorem 2, and the per-dimension signed offsets to the
 * destination. PathHop is one reserved hop of the circuit; the history
 * store of the depth-first backtracking search (Section 4.0) — the
 * output ports already searched at each node — is Message::visited.
 *
 * HeaderCodec packs/unpacks the architectural header flit layout
 * (header bit, backtrack bit, 3-bit misroute field, detour bit, SR bit,
 * n offset fields) so the router-hardware costs of Section 5.0 can be
 * exercised and benchmarked.
 */

#ifndef TPNET_ROUTING_HEADER_HPP
#define TPNET_ROUTING_HEADER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"
#include "topology/torus.hpp"

namespace tpnet {

/** One reserved hop of a circuit. */
struct PathHop
{
    LinkId link = invalidLink;
    int vc = -1;
    /** True when this hop was a misroute (moved away from destination). */
    bool misroute = false;
    /**
     * Port whose outstanding-misroute balance this (profitable) hop
     * corrected when taken, or -1. Needed to undo the Theorem 2
     * bookkeeping exactly when the probe backtracks over the hop.
     */
    std::int8_t corrected = -1;
};

/** Live state of a message's routing probe. */
struct HeaderState
{
    /** Router at which the probe currently resides. */
    NodeId cur = invalidNode;

    /** Signed offsets from cur to the destination (Fig. 9 offset fields). */
    OffsetVec offset{};

    /** Probe is travelling toward the source (Fig. 9 backtrack bit). */
    bool backtrack = false;

    /** Detour mode (Fig. 9 detour bit): no positive acks, free search. */
    bool detour = false;

    /** SR bit (Fig. 9): probe has crossed at least one unsafe channel. */
    bool sr = false;

    /** Outstanding (uncorrected) misroutes — Theorem 2's bookkeeping. */
    int misroutes = 0;

    /**
     * Per-port outstanding misroute balance: taking an unprofitable hop
     * through a port increments its entry; a later profitable hop
     * through the paired (opposite) port corrects it. Sized for the
     * largest registered topology radix (Topology::radix() <= maxPorts).
     */
    std::array<std::int8_t, maxPorts> misBalance{};

    /** Dateline-crossed bit per dimension (escape VC class selection). */
    std::uint8_t datelineCrossed = 0;

    /** Flow control mechanism currently governing new reservations. */
    FlowMode flow = FlowMode::Wormhole;

    /** Total probe moves this setup attempt (search budget). */
    int hops = 0;

    /** Consecutive cycles the probe failed to progress (stall detector). */
    int stalled = 0;

    /** Path index whose gate carries the detour hold (-1 = source gate). */
    int holdIdx = -2;  ///< -2 = no hold placed

    bool atDest() const
    {
        for (int v : offset) {
            if (v != 0)
                return false;
        }
        return true;
    }
};

/**
 * Architectural encoding of the Fig. 9 header flit. The offset fields are
 * ceil(log2(k)) + 1 bits each (sign/magnitude range -k/2 .. k/2).
 */
class HeaderCodec
{
  public:
    /** @param k radix, @param n dimensions of the target network. */
    HeaderCodec(int k, int n);

    /** Bits in one encoded header for this geometry. */
    int bits() const { return bits_; }

    /** Number of 16-bit flits (phits) the header occupies. */
    int flits16() const { return (bits_ + 15) / 16; }

    /** Pack live header state into the architectural layout. */
    std::uint64_t pack(const HeaderState &hdr) const;

    /** Unpack an architectural header into mode bits and offsets. */
    HeaderState unpack(std::uint64_t raw) const;

  private:
    int k_;
    int n_;
    int offBits_;
    int bits_;
};

} // namespace tpnet

#endif // TPNET_ROUTING_HEADER_HPP
