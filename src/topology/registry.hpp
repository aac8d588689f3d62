/**
 * @file
 * Named topology registry: the single place that knows how to turn a
 * SimConfig into a concrete Topology, and the list the conformance wall
 * (tests/topology/test_conformance_wall.cpp) iterates so that adding a
 * topology automatically subjects it to the full contract checks —
 * channel-table involution, escape-walk termination, escape-CDG
 * acyclicity, and all-pairs delivery on a live network.
 */

#ifndef TPNET_TOPOLOGY_REGISTRY_HPP
#define TPNET_TOPOLOGY_REGISTRY_HPP

#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "topology/topology.hpp"

namespace tpnet {

/** One registered topology family. */
struct TopologyEntry
{
    const char *name;   ///< matches topologyName(kind)
    TopologyKind kind;
    /// Build the topology described by @p cfg (geometry fields only).
    std::unique_ptr<const Topology> (*make)(const SimConfig &cfg);
    /// A small valid instance of this family for the conformance wall:
    /// a few dozen nodes so all-pairs checks stay fast.
    SimConfig (*wallConfig)();
};

/** All registered topology families, in TopologyKind order. */
const std::vector<TopologyEntry> &topologyRegistry();

/** Registry entry for @p kind (dies on an unregistered kind). */
const TopologyEntry &topologyEntry(TopologyKind kind);

/** Build the topology configured by @p cfg (cfg.topology). */
std::unique_ptr<const Topology> makeTopology(const SimConfig &cfg);

} // namespace tpnet

#endif // TPNET_TOPOLOGY_REGISTRY_HPP
