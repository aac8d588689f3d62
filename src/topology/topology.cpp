#include "topology/topology.hpp"

#include "sim/log.hpp"

namespace tpnet {

Topology::~Topology() = default;

void
Topology::initGeometry(int nodes, int radix)
{
    if (nodes < 2)
        tpnet_fatal("topology needs at least 2 nodes (got ", nodes, ")");
    if (radix < 1 || radix > maxPorts)
        tpnet_fatal("topology radix ", radix, " out of range [1, ",
                    maxPorts, "]");
    nodes_ = nodes;
    radix_ = radix;
}

double
Topology::avgMinDistance() const
{
    // Mean over all ordered pairs including src == dst, matching the
    // cube closed forms. Quadratic; concrete topologies with closed
    // forms or distance tables override.
    double total = 0.0;
    for (NodeId u = 0; u < nodes_; ++u) {
        for (NodeId v = 0; v < nodes_; ++v)
            total += static_cast<double>(distance(u, v));
    }
    return total / (static_cast<double>(nodes_) *
                    static_cast<double>(nodes_));
}

OffsetVec
Topology::offsets(NodeId from, NodeId to) const
{
    OffsetVec off{};
    off[0] = distance(from, to);
    return off;
}

PortList
Topology::profitablePorts(NodeId cur, NodeId dst) const
{
    PortList ports;
    for (int port = 0; port < radix_; ++port) {
        if (portProfitable(cur, port, dst))
            ports.push_back(port);
    }
    return ports;
}

bool
Topology::portProfitable(NodeId cur, int port, NodeId dst) const
{
    if (cur == dst || !portPresent(cur, port))
        return false;
    return distance(neighbor(cur, port), dst) < distance(cur, dst);
}

} // namespace tpnet
