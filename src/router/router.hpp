/**
 * @file
 * Per-node router state (paper Section 5.0, Fig. 8).
 *
 * The blocks of the router chip map onto this model as follows: the LCUs
 * and CIBU queues live in the Link objects of the incident links, the
 * DIBUs in the network's data plane (router/data_plane.hpp); the
 * RCU is the rcuQueue served at one header per cycle plus the routing
 * protocol object; the history store and unsafe store are realized by the
 * header state frames / link unsafe bits; the counter management unit
 * (CMU) is the per-VC counter in VcState; the crossbar is the per-output
 * arbitration over the fixed-capacity mapped-input lists kept here.
 */

#ifndef TPNET_ROUTER_ROUTER_HPP
#define TPNET_ROUTER_ROUTER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "router/data_plane.hpp"
#include "sim/fifo.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace tpnet {

/** A header awaiting routing service at a router's RCU. */
struct RcuEntry
{
    MsgId msg = invalidMsg;
    int epoch = 0;  ///< stale entries of earlier setup attempts are skipped
};

/** State of one routing node. */
class Router
{
    // The crossbar state the data phase reads on every visit comes
    // first, so it shares a cache line with id and faulty.
    int radix_ = 0;
    std::size_t cap_ = 0;     ///< entries per list
    std::size_t stride_ = 0;  ///< words per list, whole cache lines
    std::size_t base_ = 0;    ///< first word of list 0 (line-aligned)
    std::vector<std::uint32_t> words_;

  public:
    NodeId id = invalidNode;

    /** Failed PE+router: removed from the network (Section 2.4). */
    bool faulty = false;

    /**
     * Headers waiting for the RCU. The RCU routes at most one header per
     * cycle; headers that cannot make progress rotate to the back of the
     * queue (the control FIFOs arbitrating for the RCU, Fig. 8).
     */
    Fifo<RcuEntry> rcuQueue;

    // --- Statistics --------------------------------------------------------
    std::size_t maxRcuDepth = 0;
    std::uint64_t headersRouted = 0;

    /**
     * Size the crossbar lists for @p radix ports of @p vcs VCs. Each list
     * holds at most every input VC of the router (radix * vcs): an input
     * maps to one output, but a stale mapping can outlive a downstream
     * trio a teardown walk freed and another circuit re-reserved.
     */
    void
    init(NodeId id_, int radix, int vcs)
    {
        if (radix < 1 || radix > maxPorts || vcs < 1)
            tpnet_panic("router geometry out of range: radix ", radix,
                        ", ", vcs, " VCs");
        id = id_;
        radix_ = radix;
        cap_ = static_cast<std::size_t>(radix) * static_cast<std::size_t>(vcs);
        // Each list starts a cache line: [length, rr, entries...].
        stride_ = (kHeader + cap_ + kLineWords - 1) / kLineWords * kLineWords;
        words_.assign(stride_ * static_cast<std::size_t>(radix + 1) +
                          kLineWords - 1,
                      0);
        const auto addr = reinterpret_cast<std::uintptr_t>(words_.data());
        base_ = (kLineWords - addr / sizeof(std::uint32_t) % kLineWords) %
                kLineWords;
    }

    /**
     * Crossbar input list of output @p port (ejectPort: the local PE):
     * the input VCs whose circuits are mapped there, in mapping order.
     * Maintained on map/unmap so the data phase does not scan every
     * input VC.
     */
    std::span<const VcIndex>
    mappedInputs(int port) const
    {
        const std::uint32_t *l = list(port);
        return {l + kHeader, l[0]};
    }

    std::span<const VcIndex> ejectInputs() const
    {
        return mappedInputs(ejectPort);
    }

    /**
     * Round-robin pointer of output @p port's (or ejection's) arbiter:
     * where the next arbitration starts; may exceed the list length
     * after removals (arbiters reduce it modulo the length).
     */
    std::size_t rr(int port) const { return list(port)[1]; }

    void
    setRr(int port, std::size_t at)
    {
        list(port)[1] = static_cast<std::uint32_t>(at);
    }

    /** Register a mapped input VC with an output port (or ejection). */
    void
    mapInput(int out_port, VcIndex in)
    {
        std::uint32_t *l = list(out_port);
        if (l[0] == cap_)
            tpnet_panic("crossbar list of router ", id, " port ", out_port,
                        " is full");
        l[kHeader + l[0]++] = in;
    }

    /** Remove a mapped input VC from an output port (or ejection). */
    void
    unmapInput(int out_port, VcIndex in)
    {
        std::uint32_t *l = list(out_port);
        VcIndex *first = l + kHeader;
        for (std::uint32_t i = 0; i < l[0]; ++i) {
            if (first[i] == in) {
                for (std::uint32_t j = i + 1; j < l[0]; ++j)
                    first[j - 1] = first[j];
                --l[0];
                return;
            }
        }
    }

    /** Slots of one crossbar list: every input VC of the router. */
    std::size_t listCapacity() const { return cap_; }

    /** Empty every crossbar list (checkpoint restore). */
    void
    clearInputs()
    {
        for (int port = 0; port < radix_; ++port)
            list(port)[0] = 0;
        list(ejectPort)[0] = 0;
    }

  private:
    static constexpr std::size_t kLineWords = 64 / sizeof(std::uint32_t);
    static constexpr std::size_t kHeader = 2;  ///< length, rr

    /** List of an output port; the eject list follows the ports. */
    std::uint32_t *
    list(int port)
    {
        const std::size_t l =
            static_cast<std::size_t>(port == ejectPort ? radix_ : port);
        return words_.data() + base_ + l * stride_;
    }

    const std::uint32_t *
    list(int port) const
    {
        return const_cast<Router *>(this)->list(port);
    }

};

} // namespace tpnet

#endif // TPNET_ROUTER_ROUTER_HPP
