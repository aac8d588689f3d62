/**
 * @file
 * Synthetic traffic patterns. The paper's evaluation uses uniformly
 * distributed destinations (Section 6.0); the permutation vocabulary
 * (bit-complement, transpose, bit-reversal, shuffle, tornado,
 * neighbor) provides the adversarial loads the related fault-tolerant
 * routing literature evaluates under, and any pattern can be skewed
 * toward a hotspot set (DESIGN.md Section 6j).
 */

#ifndef TPNET_TRAFFIC_PATTERN_HPP
#define TPNET_TRAFFIC_PATTERN_HPP

#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace tpnet {

class Network;

/** Chooses destinations for newly generated messages. */
class TrafficSource
{
  public:
    /** The class's pattern plus its hotspot skew. */
    TrafficSource(const TrafficClassConfig &cls, const Topology &topo);

    /**
     * Destination for a message from @p src, or invalidNode when the
     * pattern maps src to itself or to a failed node (the message is
     * then not generated — failed PEs are removed from the traffic,
     * Section 2.4). Uniform sources fall back to an explicit draw over
     * the healthy-node set when rejection sampling exhausts its budget
     * (counted in Counters::uniformFallbacks), so heavy node-fault
     * campaigns cannot silently thin the offered load.
     */
    NodeId pick(Network &net, NodeId src, Rng &rng) const;

    /** The deterministic mapping for non-uniform patterns (tests). */
    NodeId mapped(NodeId src) const;

    /** i-th hotspot node: spread evenly over the id space (tests). */
    NodeId hotspotNode(int i) const;

  private:
    NodeId pickBase(Network &net, NodeId src, Rng &rng) const;

    TrafficPattern pattern_;
    const Topology &topo_;
    /// Cube-coordinate view of topo_ for coordinate-defined patterns;
    /// null on graph topologies (SimConfig::validate() rejects every
    /// non-uniform pattern there before a source can be built).
    const TorusTopology *cube_;
    double hotspotFraction_ = 0.0;
    int hotspotCount_ = 1;
    int indexBits_ = 0;  ///< log2(nodes) when nodes is a power of two
};

} // namespace tpnet

#endif // TPNET_TRAFFIC_PATTERN_HPP
