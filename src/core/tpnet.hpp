/**
 * @file
 * Umbrella header: the tpnet public API.
 *
 * tpnet is a cycle-level, flit-level simulator of torus-connected k-ary
 * n-cube interconnection networks with configurable flow control
 * mechanisms (wormhole, scouting with per-VC programmable distance K,
 * pipelined circuit switching) and the fault-tolerant routing protocols
 * of Dao, Duato & Yalamanchili, "Configurable Flow Control Mechanisms
 * for Fault-Tolerant Routing", ISCA 1995.
 *
 * Typical use:
 * @code
 *     tpnet::SimConfig cfg;
 *     cfg.protocol = tpnet::Protocol::TwoPhase;
 *     cfg.staticNodeFaults = 10;
 *     cfg.load = 0.2;
 *     tpnet::Simulator sim(cfg);
 *     tpnet::RunResult r = sim.run();
 *     std::cout << r.avgLatency << " cycles @ " << r.throughput
 *               << " flits/node/cycle\n";
 * @endcode
 */

#ifndef TPNET_CORE_TPNET_HPP
#define TPNET_CORE_TPNET_HPP

#include "core/analytic.hpp"
#include "core/experiment.hpp"
#include "core/message.hpp"
#include "core/network.hpp"
#include "core/simulator.hpp"
#include "metrics/collector.hpp"
#include "routing/header.hpp"
#include "routing/protocol.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "topology/torus.hpp"
#include "traffic/injector.hpp"

#endif // TPNET_CORE_TPNET_HPP
