/**
 * @file
 * Storage of the data plane: every virtual channel's hot VcState in one
 * array indexed by `link * V + vc`, and the DIBU flit slots of all of
 * them in one arena — VC i owns slots [i * depth, (i + 1) * depth).
 *
 * An arbitration attempt answers its empty, gate, downstream-full and
 * not-ready rejects from two 32-byte VcState records; the arena is
 * touched only by a move. Popped slots are stamped with invalidMsg so
 * the validator can recount each DIBU's occupancy from its slots.
 */

#ifndef TPNET_ROUTER_DATA_PLANE_HPP
#define TPNET_ROUTER_DATA_PLANE_HPP

#include <cstdint>
#include <vector>

#include "router/channel.hpp"
#include "router/flit.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace tpnet {

/** Flat index of a virtual channel: link * V + vc. */
using VcIndex = std::uint32_t;

/** The VC trios and DIBU flit slots of every link. */
class DataPlane
{
  public:
    /** Size for @p links links of @p vcs VCs with @p depth-flit DIBUs. */
    void
    init(std::size_t links, int vcs, int depth)
    {
        const std::size_t n = links * static_cast<std::size_t>(vcs);
        if (vcs < 1 || vcs > maxVcsPerLink || depth < 1 ||
            depth > maxBufDepth ||
            n >= VcIndex{0xffffffffu}) {
            tpnet_panic("data plane geometry out of range: ", links,
                        " links x ", vcs, " VCs x ", depth, " flits");
        }
        vcsPerLink_ = vcs;
        depth_ = static_cast<std::size_t>(depth);
        vcs_.assign(n, VcState{});
        flits_.assign(n * depth_, Flit{});
    }

    int vcsPerLink() const { return vcsPerLink_; }
    std::size_t depth() const { return depth_; }
    std::size_t size() const { return vcs_.size(); }

    VcIndex
    index(LinkId link, int vc) const
    {
        return static_cast<VcIndex>(link) *
                   static_cast<VcIndex>(vcsPerLink_) +
               static_cast<VcIndex>(vc);
    }

    LinkId
    linkOf(VcIndex i) const
    {
        return static_cast<LinkId>(i / static_cast<VcIndex>(vcsPerLink_));
    }

    int
    vcOf(VcIndex i) const
    {
        return static_cast<int>(i % static_cast<VcIndex>(vcsPerLink_));
    }

    VcState &operator[](VcIndex i) { return vcs_[i]; }
    const VcState &operator[](VcIndex i) const { return vcs_[i]; }

    VcState &vc(LinkId link, int vc) { return vcs_[index(link, vc)]; }

    const VcState &
    vc(LinkId link, int vc) const
    {
        return vcs_[index(link, vc)];
    }

    bool full(VcIndex i) const { return vcs_[i].size() == depth_; }

    /** Append @p flit to VC @p i's DIBU; panics when it is full. */
    void
    push(VcIndex i, const Flit &flit)
    {
        VcState &vc = vcs_[i];
        flits_[i * depth_ + vc.dibu.push(depth_)] = flit;
        if (vc.dibu.size() == 1)
            vc.frontReady = flit.readyAt;
    }

    /** Remove and return the front flit of VC @p i's DIBU. */
    Flit
    pop(VcIndex i)
    {
        VcState &vc = vcs_[i];
        Flit *slots = &flits_[i * depth_];
        Flit &head = slots[vc.dibu.pop(depth_)];
        const Flit flit = head;
        head.msg = invalidMsg;
        if (!vc.dibu.empty())
            vc.frontReady = slots[vc.dibu.front()].readyAt;
        return flit;
    }

    /** Flit @p k positions behind the head of VC @p i's DIBU. */
    const Flit &
    at(VcIndex i, std::size_t k) const
    {
        return flits_[i * depth_ + vcs_[i].dibu.at(k, depth_)];
    }

    /** Raw DIBU slot @p s of VC @p i, occupied or not (validator). */
    const Flit &
    slot(VcIndex i, std::size_t s) const
    {
        return flits_[i * depth_ + s];
    }

    /** First free VC index in [lo, hi) on @p link, or -1. */
    int
    firstFreeVc(LinkId link, int lo, int hi) const
    {
        const VcState *vcs = &vcs_[index(link, 0)];
        for (int v = lo; v < hi; ++v) {
            if (vcs[v].free())
                return v;
        }
        return -1;
    }

  private:
    std::vector<VcState> vcs_;
    std::vector<Flit> flits_;
    int vcsPerLink_ = 0;
    std::size_t depth_ = 0;
};

} // namespace tpnet

#endif // TPNET_ROUTER_DATA_PLANE_HPP
