/**
 * @file
 * Shared test fixtures and helpers.
 */

#ifndef TPNET_TESTS_HELPERS_HPP
#define TPNET_TESTS_HELPERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/tpnet.hpp"

namespace tpnet::test {

/** Config for a small, fast network with no traffic. */
inline SimConfig
smallConfig(Protocol p = Protocol::TwoPhase, int k = 8, int n = 2)
{
    SimConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.protocol = p;
    cfg.msgLength = 32;
    cfg.load = 0.0;
    cfg.warmup = 0;
    cfg.measure = 1000;
    cfg.watchdog = 5000;
    cfg.seed = 12345;
    return cfg;
}

/**
 * Deliver a single message on an otherwise idle network and return its
 * end-to-end latency in cycles, or -1 if it was not delivered within
 * @p budget cycles.
 */
inline double
oneShotLatency(const SimConfig &cfg, NodeId src, NodeId dst,
               Cycle budget = 20000)
{
    Network net(cfg);
    net.setMeasuring(true);
    net.offerMessage(src, dst);
    for (Cycle c = 0; c < budget && net.activeMessages() > 0; ++c)
        net.step();
    if (net.counters().measuredDelivered != 1)
        return -1.0;
    return net.counters().latency.mean();
}

/** Step @p net until quiescent or @p budget cycles elapsed. */
inline bool
runToQuiescent(Network &net, Cycle budget = 50000)
{
    for (Cycle c = 0; c < budget; ++c) {
        if (net.quiescent())
            return true;
        net.step();
    }
    return net.quiescent();
}

/** Run a loaded simulation briefly; returns the final counters. */
inline Counters
loadedRun(SimConfig cfg, double load, Cycle cycles)
{
    cfg.load = load;
    Network net(cfg);
    Injector inj(net);
    net.setMeasuring(true);
    for (Cycle c = 0; c < cycles; ++c) {
        inj.step();
        net.step();
    }
    return net.counters();
}

/** FNV-1a 64 of @p lines, each followed by a newline (pins a report
 *  list in one number). */
inline std::uint64_t
linesDigest(const std::vector<std::string> &lines)
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const std::string &line : lines) {
        for (const char ch : line + "\n") {
            digest ^= static_cast<unsigned char>(ch);
            digest *= 0x100000001b3ull;
        }
    }
    return digest;
}

} // namespace tpnet::test

#endif // TPNET_TESTS_HELPERS_HPP
