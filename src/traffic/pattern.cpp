#include "traffic/pattern.hpp"

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {

namespace {

int
indexBitsFor(int nodes)
{
    if ((nodes & (nodes - 1)) != 0)
        return 0;
    int bits = 0;
    while ((1 << bits) < nodes)
        ++bits;
    return bits;
}

} // namespace

TrafficSource::TrafficSource(const TrafficClassConfig &cls,
                             const Topology &topo)
    : pattern_(cls.pattern), topo_(topo), cube_(topo.cube()),
      hotspotFraction_(cls.hotspotFraction), hotspotCount_(cls.hotspotCount),
      indexBits_(indexBitsFor(topo.nodes()))
{}

NodeId
TrafficSource::mapped(NodeId src) const
{
    if (pattern_ != TrafficPattern::Uniform && !cube_)
        tpnet_panic(patternName(pattern_), " traffic on a non-cube "
                    "topology (config validation should have refused it)");
    const int n = cube_ ? cube_->n() : 0;
    const int k = cube_ ? cube_->k() : 0;
    OffsetVec coords{};
    switch (pattern_) {
      case TrafficPattern::Uniform:
        tpnet_panic("uniform traffic has no deterministic mapping");

      case TrafficPattern::BitComplement:
        for (int d = 0; d < n; ++d)
            coords[d] = k - 1 - cube_->coord(src, d);
        return cube_->nodeAt(coords);

      case TrafficPattern::Transpose:
        for (int d = 0; d < n; ++d)
            coords[d] = cube_->coord(src, n - 1 - d);
        return cube_->nodeAt(coords);

      case TrafficPattern::NeighborPlus:
        for (int d = 0; d < n; ++d)
            coords[d] = cube_->coord(src, d);
        coords[0] = (coords[0] + 1) % k;
        return cube_->nodeAt(coords);

      case TrafficPattern::Tornado: {
        // Canonical tornado: just under half way around each ring,
        // k/2 - 1 for even k (k/2 would be ambiguous-direction) and
        // floor(k/2) for odd k — clamped to >= 1 so binary rings
        // (k = 2) still permute instead of self-mapping.
        int off = (k % 2 == 0) ? k / 2 - 1 : k / 2;
        if (off < 1)
            off = 1;
        for (int d = 0; d < n; ++d)
            coords[d] = (cube_->coord(src, d) + off) % k;
        return cube_->nodeAt(coords);
      }

      case TrafficPattern::BitReversal: {
        if (indexBits_ == 0)
            tpnet_panic("bit-reversal traffic requires 2^b nodes");
        NodeId out = 0;
        for (int b = 0; b < indexBits_; ++b)
            if (src & (NodeId{1} << b))
                out |= NodeId{1} << (indexBits_ - 1 - b);
        return out;
      }

      case TrafficPattern::Shuffle: {
        if (indexBits_ == 0)
            tpnet_panic("shuffle traffic requires 2^b nodes");
        // Perfect shuffle: rotate the node index left one bit.
        const NodeId mask = (NodeId{1} << indexBits_) - 1;
        return ((src << 1) | (src >> (indexBits_ - 1))) & mask;
      }
    }
    tpnet_panic("unknown traffic pattern");
}

NodeId
TrafficSource::hotspotNode(int i) const
{
    // Spread the m hotspots evenly over the id space so they land in
    // distinct regions of the torus regardless of m.
    const long nodes = topo_.nodes();
    return static_cast<NodeId>((static_cast<long>(i) * nodes) /
                               hotspotCount_);
}

NodeId
TrafficSource::pickBase(Network &net, NodeId src, Rng &rng) const
{
    if (pattern_ == TrafficPattern::Uniform) {
        // Uniform over healthy nodes, destination != source. Rejection
        // sampling is the fast path; its draw sequence is kept exactly
        // as before so historical RNG streams are unchanged.
        const int nodes = topo_.nodes();
        for (int attempt = 0; attempt < 64; ++attempt) {
            const NodeId dst = static_cast<NodeId>(
                rng.below(static_cast<std::uint64_t>(nodes)));
            if (dst != src && !net.nodeFaulty(dst))
                return dst;
        }
        // Nearly everything failed: draw directly from the healthy
        // set instead of thinning the offered load.
        ++net.counters().uniformFallbacks;
        std::vector<NodeId> healthy = net.healthyNodes();
        for (std::size_t i = 0; i < healthy.size(); ++i) {
            if (healthy[i] == src) {
                healthy.erase(healthy.begin() +
                              static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        if (healthy.empty())
            return invalidNode;  // src is the last node standing
        return healthy[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(healthy.size())))];
    }
    const NodeId dst = mapped(src);
    if (dst == src || net.nodeFaulty(dst))
        return invalidNode;
    return dst;
}

NodeId
TrafficSource::pick(Network &net, NodeId src, Rng &rng) const
{
    if (hotspotFraction_ > 0.0 && rng.chance(hotspotFraction_)) {
        const int i = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(hotspotCount_)));
        const NodeId dst = hotspotNode(i);
        if (dst != src && !net.nodeFaulty(dst))
            return dst;
        // Unusable hotspot (self or failed): fall through to the base
        // pattern so the class keeps offering load.
    }
    return pickBase(net, src, rng);
}

} // namespace tpnet
