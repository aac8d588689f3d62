/** @file Unit tests for SimConfig derived values and validation. */

#include <gtest/gtest.h>

#include "sim/config.hpp"

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
    EXPECT_EQ(cfg.diameter(), 16);
    cfg.validate();  // must not die
}

TEST(Config, NodesAndDiameterScale)
{
    SimConfig cfg;
    cfg.k = 4;
    cfg.n = 3;
    EXPECT_EQ(cfg.nodes(), 64);
    EXPECT_EQ(cfg.radix(), 6);
    EXPECT_EQ(cfg.diameter(), 6);
}

TEST(Config, AvgMinDistanceEvenRadix)
{
    // Uniform destinations on a k-ring (k even): mean minimal distance
    // k/4 per dimension.
    SimConfig cfg;
    cfg.k = 16;
    cfg.n = 2;
    EXPECT_NEAR(cfg.avgMinDistance(), 8.0, 1e-9);
}

TEST(Config, MsgRate)
{
    SimConfig cfg;
    cfg.load = 0.32;
    cfg.msgLength = 32;
    EXPECT_NEAR(cfg.msgRate(), 0.01, 1e-12);
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
