/**
 * @file
 * Graph-topology interface consumed by the network, the routing
 * protocols, the escape-channel layer, and the CWG/knot analyzer.
 *
 * A topology declares a fixed node set [0, nodes) where every node has
 * the same radix of output ports [0, radix). A unidirectional physical
 * link is identified globally by LinkId = node * radix + port; ports
 * without a physical channel (mesh edges) report portPresent() false
 * and their links are marked structurally absent by the Network.
 *
 * The channel table must be an involution over present (node, port)
 * pairs: the hop out of (u, p) arrives at v = neighbor(u, p) on input
 * port q = arrivalPort(u, p), and the reverse wire satisfies
 * neighbor(v, q) == u with arrivalPort(v, q) == p. The topology
 * conformance wall (tests/topology/test_conformance_wall.cpp) checks
 * this for every registered topology.
 *
 * Each topology also describes its escape (deterministic) subfunction:
 * escapePort() names the single escape hop toward a destination,
 * escapeClass() maps it onto a dateline/escape VC class, and
 * datelineAfter() evolves the per-message dateline state. The escape
 * channel-dependency graph induced by these three functions must be
 * acyclic (Theorem 3); verify::checkEscapeCdg walks it statically and
 * the live CWG oracle re-checks it during runs.
 */

#ifndef TPNET_TOPOLOGY_TOPOLOGY_HPP
#define TPNET_TOPOLOGY_TOPOLOGY_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

/** Signed per-dimension offsets from a node to a destination. */
using OffsetVec = std::array<int, maxDims>;

/**
 * Up to maxPorts output ports in a chosen order, held inline: the
 * routing functions build one per route() call, so it must not touch
 * the heap.
 */
class PortList
{
  public:
    void push_back(int port) { ports_[n_++] = static_cast<std::int8_t>(port); }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    int operator[](std::size_t i) const { return ports_[i]; }
    const std::int8_t *begin() const { return ports_.data(); }
    const std::int8_t *end() const { return ports_.data() + n_; }

    /**
     * Order by @p key(port) descending; ports of equal key keep their
     * order (a stable insertion sort: at most maxPorts entries).
     */
    template <class Key>
    void
    stableSortDescending(Key key)
    {
        for (std::size_t i = 1; i < n_; ++i) {
            const std::int8_t port = ports_[i];
            const auto k = key(port);
            std::size_t j = i;
            for (; j > 0 && key(ports_[j - 1]) < k; --j)
                ports_[j] = ports_[j - 1];
            ports_[j] = port;
        }
    }

  private:
    std::array<std::int8_t, maxPorts> ports_{};
    std::size_t n_ = 0;
};

class TorusTopology;

/** Abstract network topology (see file comment for the contract). */
class Topology
{
  public:
    virtual ~Topology();

    virtual const char *name() const = 0;
    virtual TopologyKind kind() const = 0;

    int nodes() const { return nodes_; }
    int radix() const { return radix_; }
    int links() const { return nodes_ * radix_; }

    /** Maximum minimal hop distance over all node pairs. */
    virtual int diameter() const = 0;

    /**
     * Mean minimal hop count, uniform over all (src, dst) ordered pairs
     * including src == dst. Default: brute force over distance().
     */
    virtual double avgMinDistance() const;

    /** Neighbor reached through @p port. Defined even when the port is
     *  structurally absent (the link still has an id). */
    virtual NodeId neighbor(NodeId node, int port) const = 0;

    /** Input port at neighbor(node, port) the hop arrives on. */
    virtual int
    arrivalPort(NodeId node, int port) const
    {
        (void)node;
        return oppositePort(port);
    }

    /** False when the channel out of (node, port) does not physically
     *  exist (mesh wraparound edges). */
    virtual bool
    portPresent(NodeId node, int port) const
    {
        (void)node;
        (void)port;
        return true;
    }

    /** Global id of the unidirectional link out of @p node via @p port. */
    LinkId
    linkId(NodeId node, int port) const
    {
        return node * radix_ + port;
    }

    /** Source node of link @p link. */
    NodeId linkSrc(LinkId link) const { return link / radix_; }

    /** Output port of link @p link at its source node. */
    int linkPort(LinkId link) const { return link % radix_; }

    /** Destination node of link @p link. */
    NodeId
    linkDst(LinkId link) const
    {
        return neighbor(linkSrc(link), linkPort(link));
    }

    /** Link running in the opposite direction over the same physical wire. */
    LinkId
    reverseLink(LinkId link) const
    {
        const NodeId u = linkSrc(link);
        const int p = linkPort(link);
        return linkId(neighbor(u, p), arrivalPort(u, p));
    }

    /** Minimal hop distance between two nodes. */
    virtual int distance(NodeId from, NodeId to) const = 0;

    /**
     * Header offset fields from @p from to @p to. Cube families use the
     * paper's signed per-dimension offsets (Fig. 9); graph topologies
     * default to {distance, 0, ...} so HeaderState::atDest() holds
     * exactly at the destination.
     */
    virtual OffsetVec offsets(NodeId from, NodeId to) const;

    /**
     * Present ports whose hop makes minimal progress from @p cur toward
     * @p dst (profitable links, paper Section 2.1), returned in the
     * selection function's preference order. Cube families order by
     * decreasing remaining offset magnitude; the default orders by
     * ascending port number.
     */
    virtual PortList profitablePorts(NodeId cur, NodeId dst) const;

    /** True when the hop out of (cur, port) makes minimal progress. */
    virtual bool portProfitable(NodeId cur, int port, NodeId dst) const;

    /**
     * Port whose traversal cancels a misroute taken through @p port
     * (Theorem 2 bookkeeping: the opposite direction of the same
     * dimension on cubes), or -1 when the topology has no such pairing
     * and misroutes are simply counted.
     */
    virtual int
    pairedPort(int port) const
    {
        (void)port;
        return -1;
    }

    /**
     * The escape (deterministic) subfunction's single output port from
     * @p cur toward @p dst, or -1 at the destination. Walking
     * escapePort() repeatedly must reach @p dst in < nodes() hops.
     */
    virtual int escapePort(NodeId cur, NodeId dst) const = 0;

    /**
     * Escape VC class for the hop out of (cur, port) toward @p dst,
     * given the message's dateline state; in [0, escape_vcs). The
     * induced escape CDG must be acyclic (Theorem 3).
     */
    virtual int escapeClass(NodeId cur, int port, NodeId dst,
                            std::uint8_t dateline, int escape_vcs) const = 0;

    /** Dateline state after the hop out of (node, port). */
    virtual std::uint8_t
    datelineAfter(NodeId node, int port, std::uint8_t state) const
    {
        (void)node;
        (void)port;
        return state;
    }

    /** Escape VC classes the topology's deadlock-freedom argument needs. */
    virtual int minEscapeVcs() const = 0;

    /**
     * Downcast for cube-coordinate consumers (coordinate traffic
     * patterns, the Fig. 9 header codec, trace helpers): non-null for
     * the cube family (torus / mesh / express), null otherwise.
     */
    virtual const TorusTopology *cube() const { return nullptr; }

  protected:
    Topology() = default;

    /** Set node count and radix; dies unless 0 < radix <= maxPorts. */
    void initGeometry(int nodes, int radix);

    int nodes_ = 0;
    int radix_ = 0;
};

} // namespace tpnet

#endif // TPNET_TOPOLOGY_TOPOLOGY_HPP
