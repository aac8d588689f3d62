/** @file Structural invariant checker: clean runs stay consistent at
 *  every sampled instant; seeded corruptions are detected. */

#include <tuple>

#include <gtest/gtest.h>

#include "core/validator.hpp"
#include "helpers.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

using test::smallConfig;

TEST(Validator, FreshNetworkConsistent)
{
    Network net(smallConfig());
    EXPECT_TRUE(validateNetwork(net).empty());
}

TEST(Validator, SingleMessageLifecycleConsistent)
{
    Network net(smallConfig(Protocol::TwoPhase));
    net.offerMessage(0, 27);
    for (int c = 0; c < 200; ++c) {
        net.step();
        ASSERT_TRUE(validateNetwork(net).empty()) << "cycle " << c;
        if (net.quiescent())
            break;
    }
    EXPECT_TRUE(net.quiescent());
}

/** Consistency under load, faults, and recovery, for every protocol. */
class ValidatorSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, int, bool>>
{};

TEST_P(ValidatorSweep, PeriodicallyConsistentUnderLoad)
{
    const auto [proto, faults, tack] = GetParam();
    SimConfig cfg = smallConfig(proto, 8, 2);
    cfg.msgLength = 16;
    cfg.load = 0.15;
    cfg.staticNodeFaults = faults;
    cfg.tailAck = tack;
    cfg.protectPerimeter = true;
    cfg.seed = 314;
    cfg.watchdog = 30000;

    Network net(cfg);
    Injector inj(net);
    for (int c = 0; c < 2000; ++c) {
        inj.step();
        net.step();
        if (c % 97 == 0) {
            const auto violations = validateNetwork(net);
            ASSERT_TRUE(violations.empty())
                << "cycle " << c << ": " << violations.front().what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ValidatorSweep,
    ::testing::Combine(::testing::Values(Protocol::Duato, Protocol::MBm,
                                         Protocol::TwoPhase,
                                         Protocol::Scouting),
                       ::testing::Values(0, 6),
                       ::testing::Values(false, true)));

TEST(Validator, ConsistentThroughDynamicFaults)
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 16;
    cfg.load = 0.12;
    cfg.tailAck = true;
    cfg.seed = 7;
    cfg.watchdog = 30000;
    Network net(cfg);
    Injector inj(net);
    net.setDynamicFaultProcess(0.003, 5);
    for (int c = 0; c < 2500; ++c) {
        inj.step();
        net.step();
        if (c % 53 == 0) {
            const auto violations = validateNetwork(net);
            ASSERT_TRUE(violations.empty())
                << "cycle " << c << ": " << violations.front().what;
        }
    }
}

TEST(Validator, DetectsForeignFlit)
{
    Network net(smallConfig(Protocol::DimOrder));
    net.offerMessage(0, 4);
    for (int c = 0; c < 6 && !net.quiescent(); ++c)
        net.step();
    // Corrupt: drop a foreign flit into a reserved trio's DIBU.
    bool corrupted = false;
    for (LinkId id = 0; id < net.topo().links() && !corrupted; ++id) {
        for (int v = 0; v < net.vcCount(); ++v) {
            DataPlane &plane = net.dataPlane();
            const VcIndex i = plane.index(id, v);
            if (!plane[i].free() && !plane.full(i)) {
                Flit alien;
                alien.msg = 4242;
                plane.push(i, alien);
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    const auto violations = validateNetwork(net);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().what.find("foreign flit"),
              std::string::npos);
}

TEST(Validator, DetectsOrphanOwnership)
{
    Network net(smallConfig());
    net.vc(0, 0).reserve(999, 0, false);  // message 999 does not exist
    const auto violations = validateNetwork(net);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().what.find("retired msg"),
              std::string::npos);
}

TEST(Validator, DetectsNegativeCounter)
{
    Network net(smallConfig());
    net.offerMessage(0, 5);
    net.step();
    net.step();
    // Find the reserved trio and corrupt its CMU counter.
    bool corrupted = false;
    for (LinkId id = 0; id < net.topo().links() && !corrupted; ++id) {
        for (int v = 0; v < net.vcCount(); ++v) {
            VcState &vc = net.vc(id, v);
            if (!vc.free()) {
                vc.counter = -2;
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    const auto violations = validateNetwork(net);
    ASSERT_FALSE(violations.empty());
}

/**
 * Run loaded traffic until some node has flits buffered in its mapped
 * input VCs; @return one such input VC (with a flit at its front).
 */
VcIndex
bufferedMappedInput(Network &net, NodeId &node, int &port)
{
    Injector inj(net);
    for (int c = 0; c < 400; ++c) {
        inj.step();
        net.step();
    }
    for (node = 0; node < net.topo().nodes(); ++node) {
        const Router &rt = net.router(node);
        for (port = ejectPort; port < net.topo().radix(); ++port) {
            if (port == -1)
                continue;
            for (VcIndex in : rt.mappedInputs(port)) {
                if (!net.dataPlane()[in].empty())
                    return in;
            }
        }
    }
    ADD_FAILURE() << "no buffered mapped input after 400 loaded cycles";
    return 0;
}

SimConfig
loadedConfig()
{
    SimConfig cfg = smallConfig(Protocol::TwoPhase);
    cfg.load = 0.3;
    return cfg;
}

bool
reports(const std::vector<Violation> &violations, const std::string &what)
{
    for (const Violation &v : violations) {
        if (v.what.find(what) != std::string::npos)
            return true;
    }
    return false;
}

TEST(Validator, LoadedNetworkCachesMatchRecount)
{
    Network net(loadedConfig());
    NodeId node = 0;
    int port = 0;
    bufferedMappedInput(net, node, port);
    EXPECT_TRUE(validateNetwork(net).empty());
}

TEST(Validator, DetectsMappedFlitCountDrift)
{
    // Popping through the raw data plane skips the router's cached
    // mapped-flit count, which then disagrees with its crossbar lists.
    Network net(loadedConfig());
    NodeId node = 0;
    int port = 0;
    const VcIndex in = bufferedMappedInput(net, node, port);
    const std::uint32_t cached = net.mappedFlits(node, port);
    net.dataPlane().pop(in);
    EXPECT_EQ(net.mappedFlits(node, port), cached);
    const auto violations = validateNetwork(net);
    EXPECT_TRUE(reports(violations, "flits in mapped inputs"));
}

TEST(Validator, DetectsDibuOccupancyDrift)
{
    // Clearing the ring position leaves the slots holding flits.
    Network net(loadedConfig());
    NodeId node = 0;
    int port = 0;
    const VcIndex in = bufferedMappedInput(net, node, port);
    net.dataPlane()[in].dibu.clear();
    const auto violations = validateNetwork(net);
    EXPECT_TRUE(reports(violations, "buffered flits, its DIBU slots hold"));
}

TEST(Validator, DetectsStaleFrontReadyCycle)
{
    Network net(loadedConfig());
    NodeId node = 0;
    int port = 0;
    const VcIndex in = bufferedMappedInput(net, node, port);
    net.dataPlane()[in].frontReady += 5;
    const auto violations = validateNetwork(net);
    EXPECT_TRUE(reports(violations, "caches front-ready cycle"));
}

TEST(ValidatorDeath, AssertConsistentPanics)
{
    Network net(smallConfig());
    net.vc(0, 0).reserve(999, 0, false);
    EXPECT_DEATH(assertConsistent(net), "inconsistent");
}

} // namespace
} // namespace tpnet
