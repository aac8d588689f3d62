#include "topology/torus.hpp"

#include <algorithm>
#include <cstdlib>

#include "sim/log.hpp"

namespace tpnet {

TorusTopology::TorusTopology(int k, int n, bool wrap)
    : k_(k), n_(n), wrap_(wrap)
{
    if (k < 2 || n < 1 || n > maxDims)
        tpnet_fatal("bad torus geometry k=", k, " n=", n);
    stride_[0] = 1;
    for (int d = 0; d < n_; ++d)
        stride_[d + 1] = stride_[d] * k_;
    initGeometry(stride_[n_], 2 * n_);
}

double
TorusTopology::avgMinDistance() const
{
    if (!wrap_) {
        // Mesh: mean |a - b| over a uniform pair per dimension is
        // (k^2 - 1) / (3k).
        const double kd = static_cast<double>(k_);
        return static_cast<double>(n_) * (kd * kd - 1.0) / (3.0 * kd);
    }
    // Mean minimal distance along one ring of k nodes, uniform over all
    // destinations including the source, times n dimensions. For even k
    // the per-ring mean is k/4; computed exactly here for any k.
    double ring = 0.0;
    for (int d = 1; d < k_; ++d)
        ring += std::min(d, k_ - d);
    ring /= static_cast<double>(k_);
    return ring * static_cast<double>(n_);
}

int
TorusTopology::coord(NodeId node, int dim) const
{
    return (node / stride_[dim]) % k_;
}

NodeId
TorusTopology::nodeAt(const OffsetVec &coords) const
{
    NodeId id = 0;
    for (int d = 0; d < n_; ++d) {
        int c = coords[d] % k_;
        if (c < 0)
            c += k_;
        id += c * stride_[d];
    }
    return id;
}

NodeId
TorusTopology::neighbor(NodeId node, int port) const
{
    const int dim = dimOf(port);
    const int step = stepOf(dirOf(port));
    int c = coord(node, dim) + step;
    if (c < 0)
        c += k_;
    else if (c >= k_)
        c -= k_;
    return node + (c - coord(node, dim)) * stride_[dim];
}

bool
TorusTopology::portPresent(NodeId node, int port) const
{
    return wrap_ || !wrapsAround(node, port);
}

OffsetVec
TorusTopology::offsets(NodeId from, NodeId to) const
{
    OffsetVec off{};
    if (!wrap_) {
        // Mesh: the minimal path never leaves the grid.
        for (int d = 0; d < n_; ++d)
            off[d] = coord(to, d) - coord(from, d);
        return off;
    }
    for (int d = 0; d < n_; ++d) {
        int delta = coord(to, d) - coord(from, d);
        if (delta > k_ / 2)
            delta -= k_;
        else if (delta < -(k_ - 1) / 2)
            delta += k_;
        // For even k a distance of exactly k/2 can be reached either way;
        // normalize ties to the positive direction.
        if (2 * delta == -k_)
            delta = k_ / 2;
        off[d] = delta;
    }
    return off;
}

int
TorusTopology::distance(NodeId from, NodeId to) const
{
    const OffsetVec off = offsets(from, to);
    int dist = 0;
    for (int d = 0; d < n_; ++d)
        dist += std::abs(off[d]);
    return dist;
}

PortList
TorusTopology::profitablePorts(const OffsetVec &off) const
{
    PortList ports;
    for (int d = 0; d < n_; ++d) {
        for (Dir dir : {Dir::Plus, Dir::Minus}) {
            if (portProfitable(off, portOf(d, dir)))
                ports.push_back(portOf(d, dir));
        }
    }
    return ports;
}

bool
TorusTopology::portProfitable(const OffsetVec &off, int port) const
{
    // A hop is profitable when it reduces the remaining ring distance.
    // When the offset is exactly k/2 both torus directions are minimal.
    const int d = dimOf(port);
    if (off[d] == 0)
        return false;
    if (wrap_ && 2 * std::abs(off[d]) == k_)
        return true;
    return (off[d] > 0 && dirOf(port) == Dir::Plus) ||
           (off[d] < 0 && dirOf(port) == Dir::Minus);
}

PortList
TorusTopology::profitablePorts(NodeId cur, NodeId dst) const
{
    const OffsetVec off = offsets(cur, dst);
    PortList ports = profitablePorts(off);
    ports.stableSortDescending(
        [&off](int port) { return std::abs(off[dimOf(port)]); });
    return ports;
}

bool
TorusTopology::portProfitable(NodeId cur, int port, NodeId dst) const
{
    return portProfitable(offsets(cur, dst), port);
}

int
TorusTopology::escapePort(NodeId cur, NodeId dst) const
{
    const OffsetVec off = offsets(cur, dst);
    for (int d = 0; d < n_; ++d) {
        if (off[d] > 0)
            return portOf(d, Dir::Plus);
        if (off[d] < 0)
            return portOf(d, Dir::Minus);
    }
    return -1;
}

int
TorusTopology::escapeClass(NodeId cur, int port, NodeId dst,
                           std::uint8_t dateline, int escape_vcs) const
{
    (void)cur;
    (void)dst;
    const int cls = (dateline >> dimOf(port)) & 1;
    return std::min(cls, escape_vcs - 1);
}

std::uint8_t
TorusTopology::datelineAfter(NodeId node, int port,
                             std::uint8_t state) const
{
    if (crossesDateline(node, port))
        state |= static_cast<std::uint8_t>(1u << dimOf(port));
    return state;
}

OffsetVec
TorusTopology::advance(const OffsetVec &off, int port) const
{
    OffsetVec next = off;
    const int d = dimOf(port);
    // Moving in + reduces a positive offset by one; moving against the
    // offset increases the remaining distance, wrapping around the ring
    // when the magnitude would exceed the minimal representation.
    next[d] -= stepOf(dirOf(port));
    if (wrap_) {
        if (next[d] > k_ / 2)
            next[d] -= k_;
        else if (next[d] < -(k_ - 1) / 2)
            next[d] += k_;
        if (2 * next[d] == -k_)
            next[d] = k_ / 2;
    }
    return next;
}

bool
TorusTopology::wrapsAround(NodeId node, int port) const
{
    const int d = dimOf(port);
    const int c = coord(node, d);
    if (dirOf(port) == Dir::Plus)
        return c == k_ - 1;
    return c == 0;
}

bool
TorusTopology::crossesDateline(NodeId node, int port) const
{
    return wrap_ && wrapsAround(node, port);
}

} // namespace tpnet
