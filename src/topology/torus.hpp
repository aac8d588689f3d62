/**
 * @file
 * Torus-connected k-ary n-cube topology (paper Section 2.1), plus the
 * first-class mesh variant.
 *
 * Nodes are numbered in mixed-radix order: node id = sum coord[d] * k^d.
 * Each node has 2n network ports (portOf(dim, dir)) plus the PE connection
 * which the router model treats separately. A unidirectional physical
 * link is identified by LinkId = node * 2n + port and runs from `node`
 * out of `port` into `neighbor(node, port)`, arriving on the opposite
 * port. The escape subfunction is e-cube (dimension-order) routing with
 * two dateline VC classes per torus ring (one class on a mesh).
 */

#ifndef TPNET_TOPOLOGY_TORUS_HPP
#define TPNET_TOPOLOGY_TORUS_HPP

#include <array>
#include <vector>

#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace tpnet {

/**
 * Geometry and addressing of a k-ary n-cube, torus-connected by default
 * (paper Section 2.1). With @p wrap = false the same node/port/link
 * addressing describes a mesh: the wraparound channels still have ids
 * (so link numbering is uniform) but portPresent() reports them absent,
 * offsets never point across the edge, and no dateline classes are
 * needed. MeshTopology below names that variant as a first-class
 * registered topology.
 */
class TorusTopology : public Topology
{
  public:
    TorusTopology(int k, int n, bool wrap = true);

    int k() const { return k_; }
    int n() const { return n_; }
    bool wrap() const { return wrap_; }

    const char *name() const override { return wrap_ ? "torus" : "mesh"; }
    TopologyKind
    kind() const override
    {
        return wrap_ ? TopologyKind::Torus : TopologyKind::Mesh;
    }

    int
    diameter() const override
    {
        return wrap_ ? n_ * (k_ / 2) : n_ * (k_ - 1);
    }

    double avgMinDistance() const override;

    /** Coordinate of @p node along @p dim. */
    int coord(NodeId node, int dim) const;

    /** Node at the given coordinates (first n entries used). */
    NodeId nodeAt(const OffsetVec &coords) const;

    /** Neighbor reached through @p port (torus wraparound). */
    NodeId neighbor(NodeId node, int port) const override;

    /** Mesh wraparound channels do not physically exist. */
    bool portPresent(NodeId node, int port) const override;

    /**
     * Minimal signed offset from @p from to @p to in each dimension.
     * |offset| <= k/2; ties (distance exactly k/2) resolve to +.
     */
    OffsetVec offsets(NodeId from, NodeId to) const override;

    /** Minimal hop distance between two nodes. */
    int distance(NodeId from, NodeId to) const override;

    /**
     * Ports that make minimal progress from a node whose offset vector to
     * the destination is @p off (profitable links, paper Section 2.1).
     */
    PortList profitablePorts(const OffsetVec &off) const;

    /** True when moving through @p port reduces |offset| in its dimension. */
    bool portProfitable(const OffsetVec &off, int port) const;

    /**
     * Profitable ports ordered most-remaining-offset dimension first
     * (the adaptive selection heuristic; ties keep +/- enumeration
     * order, matching the historical selection function exactly).
     */
    PortList profitablePorts(NodeId cur, NodeId dst) const override;

    bool portProfitable(NodeId cur, int port, NodeId dst) const override;

    /** Opposite direction of the same dimension (Theorem 2 pairing). */
    int pairedPort(int port) const override { return oppositePort(port); }

    /** E-cube: lowest dimension with a nonzero offset. */
    int escapePort(NodeId cur, NodeId dst) const override;

    /** Dateline class of the port's ring (class 1 after the dateline). */
    int escapeClass(NodeId cur, int port, NodeId dst, std::uint8_t dateline,
                    int escape_vcs) const override;

    std::uint8_t datelineAfter(NodeId node, int port,
                               std::uint8_t state) const override;

    int minEscapeVcs() const override { return wrap_ && k_ > 2 ? 2 : 1; }

    const TorusTopology *cube() const override { return this; }

    /**
     * Offset vector after moving through @p port: the port's dimension
     * component moves one step toward zero (profitable) or away from it
     * (misroute), wrapping so |offset| stays within the ring.
     */
    OffsetVec advance(const OffsetVec &off, int port) const;

    /**
     * True when a hop through @p port out of @p node crosses the dateline
     * of the port's dimension (the wrap edge between coords k-1 and 0).
     * Used for the two-class escape-channel (deterministic channel)
     * deadlock-avoidance scheme on each torus ring. Always false on a
     * mesh (no ring, no dateline needed).
     */
    bool crossesDateline(NodeId node, int port) const;

    /**
     * True when the hop through @p port out of @p node is a wraparound
     * channel (coords k-1 -> 0 or 0 -> k-1), regardless of wrap mode —
     * these are the links a mesh marks absent.
     */
    bool wrapsAround(NodeId node, int port) const;

  protected:
    int k_;
    int n_;
    bool wrap_;
    std::array<int, maxDims + 1> stride_;
};

/**
 * k-ary n-mesh as a first-class topology (not a wrap flag): identical
 * addressing to the torus, wraparound channels structurally absent, a
 * single escape VC class suffices (e-cube on a mesh is acyclic with no
 * datelines).
 */
class MeshTopology : public TorusTopology
{
  public:
    MeshTopology(int k, int n) : TorusTopology(k, n, false) {}
};

} // namespace tpnet

#endif // TPNET_TOPOLOGY_TORUS_HPP
