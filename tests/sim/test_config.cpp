/** @file Unit tests for SimConfig derived values and validation. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "topology/registry.hpp"

namespace tpnet {
namespace {

TEST(Config, PaperDefaults)
{
    // Section 6.0: 16-ary 2-cube, 32-flit messages, 8-buffer injection
    // queue limit, uniform traffic.
    SimConfig cfg;
    EXPECT_EQ(cfg.k, 16);
    EXPECT_EQ(cfg.n, 2);
    EXPECT_EQ(cfg.msgLength, 32);
    EXPECT_EQ(cfg.injQueueLimit, 8);
    EXPECT_EQ(cfg.pattern, TrafficPattern::Uniform);
    EXPECT_EQ(cfg.protocol, Protocol::TwoPhase);
    EXPECT_EQ(cfg.misrouteLimit, 6);  // Theorem 2
    EXPECT_EQ(cfg.nodes(), 256);
    EXPECT_EQ(cfg.radix(), 4);
    EXPECT_EQ(cfg.vcsPerLink(), 4);
    EXPECT_EQ(makeTopology(cfg)->diameter(), 16);
    cfg.validate();  // must not die
}

TEST(Config, NodesAndDiameterScale)
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 3;
    EXPECT_EQ(cfg.nodes(), 64);
    EXPECT_EQ(cfg.radix(), 6);
    EXPECT_EQ(makeTopology(cfg)->diameter(), 6);
}

TEST(Config, AvgMinDistanceEvenRadix)
{
    // Uniform destinations on a k-ring (k even): mean minimal distance
    // k/4 per dimension.
    SimConfig cfg;
    cfg.k = 16;
    cfg.n = 2;
    EXPECT_NEAR(makeTopology(cfg)->avgMinDistance(), 8.0, 1e-9);
}

TEST(Config, MsgRate)
{
    SimConfig cfg;
    cfg.load = 0.32;
    cfg.msgLength = 32;
    EXPECT_NEAR(cfg.load / cfg.msgLength, 0.01, 1e-12);
}

TEST(Config, SummaryMentionsProtocolAndGeometry)
{
    SimConfig cfg;
    const std::string s = cfg.summary();
    EXPECT_NE(s.find("TP"), std::string::npos);
    EXPECT_NE(s.find("16-ary 2-cube"), std::string::npos);
}

TEST(Config, ProtocolNames)
{
    EXPECT_STREQ(protocolName(Protocol::Duato), "DP");
    EXPECT_STREQ(protocolName(Protocol::MBm), "MB-m");
    EXPECT_STREQ(protocolName(Protocol::TwoPhase), "TP");
    EXPECT_STREQ(protocolName(Protocol::Pcs), "PCS");
    EXPECT_STREQ(protocolName(Protocol::Scouting), "SR");
    EXPECT_STREQ(protocolName(Protocol::DimOrder), "DOR");
}

TEST(Config, PatternNames)
{
    EXPECT_STREQ(patternName(TrafficPattern::Uniform), "uniform");
    EXPECT_STREQ(patternName(TrafficPattern::Tornado), "tornado");
}

TEST(Config, EveryEnumNamePrintsAndParses)
{
    // Every printed name, and every spelling each parser accepts: the
    // printed name parses back, except "neighbor+1", which is written
    // "neighbor" on the command line.
    const std::pair<Protocol, const char *> protocols[] = {
        {Protocol::DimOrder, "DOR"}, {Protocol::Duato, "DP"},
        {Protocol::Scouting, "SR"},  {Protocol::Pcs, "PCS"},
        {Protocol::MBm, "MB-m"},     {Protocol::TwoPhase, "TP"},
    };
    for (const auto &[value, name] : protocols) {
        EXPECT_STREQ(protocolName(value), name);
        Protocol parsed = Protocol::DimOrder;
        EXPECT_TRUE(parseEnumName(name, &parsed)) << name;
        EXPECT_EQ(parsed, value) << name;
    }
    Protocol proto = Protocol::DimOrder;
    EXPECT_TRUE(parseEnumName("MBM", &proto));
    EXPECT_EQ(proto, Protocol::MBm);
    for (const char *bad : {"", "tp", "mb-m", "Mbm", "WR", "TP ", "DOR2"})
        EXPECT_FALSE(parseEnumName(bad, &proto)) << "'" << bad << "'";

    const std::pair<TopologyKind, const char *> topologies[] = {
        {TopologyKind::Torus, "torus"},
        {TopologyKind::Mesh, "mesh"},
        {TopologyKind::Express, "express"},
        {TopologyKind::Dragonfly, "dragonfly"},
    };
    for (const auto &[value, name] : topologies) {
        EXPECT_STREQ(topologyName(value), name);
        TopologyKind parsed = TopologyKind::Torus;
        EXPECT_TRUE(parseEnumName(name, &parsed)) << name;
        EXPECT_EQ(parsed, value) << name;
    }
    TopologyKind topo = TopologyKind::Torus;
    for (const char *bad : {"", "Torus", "cube", "hypercube", "mesh "})
        EXPECT_FALSE(parseEnumName(bad, &topo)) << "'" << bad << "'";

    const std::pair<TrafficPattern, const char *> patterns[] = {
        {TrafficPattern::Uniform, "uniform"},
        {TrafficPattern::BitComplement, "bit-complement"},
        {TrafficPattern::Transpose, "transpose"},
        {TrafficPattern::NeighborPlus, "neighbor+1"},
        {TrafficPattern::Tornado, "tornado"},
        {TrafficPattern::BitReversal, "bit-reversal"},
        {TrafficPattern::Shuffle, "shuffle"},
    };
    for (const auto &[value, name] : patterns) {
        EXPECT_STREQ(patternName(value), name);
        if (value == TrafficPattern::NeighborPlus)
            continue;
        TrafficPattern parsed = TrafficPattern::NeighborPlus;
        EXPECT_TRUE(parseEnumName(name, &parsed)) << name;
        EXPECT_EQ(parsed, value) << name;
    }
    TrafficPattern pattern = TrafficPattern::Uniform;
    EXPECT_TRUE(parseEnumName("neighbor", &pattern));
    EXPECT_EQ(pattern, TrafficPattern::NeighborPlus);
    for (const char *bad : {"", "neighbor+1", "Uniform", "bitcomplement",
                            "random", "shuffle "})
        EXPECT_FALSE(parseEnumName(bad, &pattern)) << "'" << bad << "'";

    // A workload spec round-trips "neighbor" through its parse name.
    std::vector<TrafficClassConfig> classes;
    ASSERT_TRUE(parseTrafficClasses("pattern=neighbor,load=0.1", &classes,
                                    nullptr));
    EXPECT_EQ(formatTrafficClasses(classes), "pattern=neighbor,load=0.1");
    EXPECT_STREQ(enumSpelling(TrafficPattern::NeighborPlus), "neighbor");
    EXPECT_EQ(enumChoices<Protocol>(), "DOR | DP | SR | PCS | MB-m | TP");
    EXPECT_EQ(enumChoices<TrafficPattern>(),
              "uniform | bit-complement | transpose | neighbor | tornado | "
              "bit-reversal | shuffle");

    const std::pair<VictimPolicy, const char *> policies[] = {
        {VictimPolicy::YoungestMessage, "youngest"},
        {VictimPolicy::FewestHopsHeld, "fewest-hops"},
        {VictimPolicy::RandomSeeded, "random"},
    };
    for (const auto &[value, name] : policies) {
        EXPECT_STREQ(victimPolicyName(value), name);
        VictimPolicy parsed = VictimPolicy::YoungestMessage;
        EXPECT_TRUE(parseEnumName(name, &parsed)) << name;
        EXPECT_EQ(parsed, value) << name;
    }
    VictimPolicy policy = VictimPolicy::YoungestMessage;
    for (const char *bad : {"", "Youngest", "oldest", "fewest_hops"})
        EXPECT_FALSE(parseEnumName(bad, &policy))
            << "'" << bad << "'";
}

TEST(ConfigDeath, RejectsBadGeometry)
{
    SimConfig cfg;
    cfg.k = 1;
    EXPECT_DEATH(cfg.validate(), "k must be");
}

TEST(ConfigDeath, RejectsTooManyDims)
{
    SimConfig cfg;
    cfg.n = 9;
    EXPECT_DEATH(cfg.validate(), "n must be");
}

TEST(ConfigDeath, RejectsSingleEscapeVcOnTorus)
{
    SimConfig cfg;
    cfg.escapeVcs = 1;
    EXPECT_DEATH(cfg.validate(), "dateline");
}

TEST(ConfigDeath, RejectsRetryBackoffBelowOne)
{
    // A re-try waits at least one cycle: a teardown re-queues at once
    // only for a tail-acknowledged retransmission.
    SimConfig cfg;
    cfg.retryBackoff = 0;
    EXPECT_DEATH(cfg.validate(), "retryBackoff");
}

TEST(ConfigDeath, RequiresAdaptiveVcForDp)
{
    SimConfig cfg;
    cfg.protocol = Protocol::Duato;
    cfg.adaptiveVcs = 0;
    EXPECT_DEATH(cfg.validate(), "adaptive");
}

TEST(ConfigDeath, RejectsBadFaultCount)
{
    SimConfig cfg;
    cfg.staticNodeFaults = cfg.nodes();
    EXPECT_DEATH(cfg.validate(), "staticNodeFaults");
}

TEST(ConfigDeath, RejectsNegativeLoad)
{
    SimConfig cfg;
    cfg.load = -0.1;
    EXPECT_DEATH(cfg.validate(), "load");
}

} // namespace
} // namespace tpnet
