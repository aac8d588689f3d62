/**
 * @file
 * Closed-form minimum message latencies of Section 2.2 (Fig. 1).
 *
 * For a message of L data flits crossing l links on an otherwise idle
 * network:
 *
 *   t_WR       = l + L
 *   t_scouting = l + (2K - 1) + L      (K >= 1; K = 0 behaves as WR)
 *   t_PCS      = 3l + L - 1
 *
 * The simulator adds one constant cycle of ejection-stage latency
 * (simEjectLatency) on top of these: a flit that arrives at the
 * destination router is delivered to the PE in the following cycle.
 * Validation tests assert the simulator matches formula + constant.
 */

#ifndef TPNET_CORE_ANALYTIC_HPP
#define TPNET_CORE_ANALYTIC_HPP

namespace tpnet {
namespace analytic {

/** Ejection-stage latency the simulator adds to every formula. */
constexpr int simEjectLatency = 1;

/** Minimum wormhole-routing latency (Section 2.2). */
constexpr int
wrLatency(int links, int length)
{
    return links + length;
}

/** Minimum scouting-routing latency with scouting distance K. */
constexpr int
scoutingLatency(int links, int length, int k)
{
    return k == 0 ? wrLatency(links, length)
                  : links + (2 * k - 1) + length;
}

/** Minimum pipelined-circuit-switching latency. */
constexpr int
pcsLatency(int links, int length)
{
    return 3 * links + length - 1;
}

/**
 * Maximum header/first-data-flit separation while the header advances
 * under SR(K): 2K - 1 links (Section 2.2).
 */
constexpr int
maxScoutGap(int k)
{
    return k > 0 ? 2 * k - 1 : 0;
}

/** Theorem 2: misroute budget guaranteeing delivery (< 2n faults). */
constexpr int theorem2Misroutes = 6;

/** Theorem 2: maximum consecutive backtracking steps (K = 3 suffices). */
constexpr int theorem2Backtracks = 3;

} // namespace analytic
} // namespace tpnet

#endif // TPNET_CORE_ANALYTIC_HPP
