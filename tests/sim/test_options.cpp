/** @file Command-line option parser tests. */

#include <gtest/gtest.h>

#include <utility>

#include "sim/options.hpp"

namespace tpnet {
namespace {

struct ParserFixture : ::testing::Test
{
    ParserFixture()
        : parser("prog", "test program")
    {
        parser.addFlag("flag", "a flag", &flag);
        parser.addInt("count", "an int", &count);
        parser.addDouble("rate", "a double", &rate);
        parser.addString("name", "a string", &name);
        parser.addUint64("seed", "a u64", &seed);
    }

    bool
    run(std::initializer_list<const char *> args, std::string *err = nullptr)
    {
        std::vector<const char *> argv{"prog"};
        argv.insert(argv.end(), args.begin(), args.end());
        return parser.parse(static_cast<int>(argv.size()), argv.data(),
                            err);
    }

    OptionParser parser;
    bool flag = false;
    int count = 0;
    double rate = 0.0;
    std::string name;
    std::uint64_t seed = 0;
};

TEST_F(ParserFixture, EmptyIsFine)
{
    EXPECT_TRUE(run({}));
    EXPECT_FALSE(parser.helpRequested());
}

TEST_F(ParserFixture, SpaceSeparatedValues)
{
    EXPECT_TRUE(run({"--count", "42", "--rate", "0.25", "--name", "tp"}));
    EXPECT_EQ(count, 42);
    EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_EQ(name, "tp");
}

TEST_F(ParserFixture, EqualsSeparatedValues)
{
    EXPECT_TRUE(run({"--count=7", "--seed=123456789012345"}));
    EXPECT_EQ(count, 7);
    EXPECT_EQ(seed, 123456789012345ull);
}

TEST_F(ParserFixture, FlagForms)
{
    EXPECT_TRUE(run({"--flag"}));
    EXPECT_TRUE(flag);
    EXPECT_TRUE(run({"--flag=0"}));
    EXPECT_FALSE(flag);
    EXPECT_TRUE(run({"--flag=true"}));
    EXPECT_TRUE(flag);
}

TEST_F(ParserFixture, NegativeNumbers)
{
    EXPECT_TRUE(run({"--count", "-3", "--rate", "-0.5"}));
    EXPECT_EQ(count, -3);
    EXPECT_DOUBLE_EQ(rate, -0.5);
}

TEST_F(ParserFixture, UnknownOptionRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--bogus", "1"}, &err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST_F(ParserFixture, MissingValueRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count"}, &err));
    EXPECT_NE(err.find("missing value"), std::string::npos);
}

TEST_F(ParserFixture, BadValueRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count", "abc"}, &err));
    EXPECT_NE(err.find("bad value"), std::string::npos);
}

TEST_F(ParserFixture, PositionalRejected)
{
    std::string err;
    EXPECT_FALSE(run({"stray"}, &err));
    EXPECT_NE(err.find("unexpected argument"), std::string::npos);
}

TEST_F(ParserFixture, HelpRequested)
{
    EXPECT_TRUE(run({"--help"}));
    EXPECT_TRUE(parser.helpRequested());
}

TEST_F(ParserFixture, UsageListsOptions)
{
    const std::string usage = parser.usage();
    EXPECT_NE(usage.find("--flag"), std::string::npos);
    EXPECT_NE(usage.find("--count <int>"), std::string::npos);
    EXPECT_NE(usage.find("a double"), std::string::npos);
}

TEST_F(ParserFixture, TrailingGarbageRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count", "8x"}, &err));
    EXPECT_NE(err.find("bad value '8x' for --count"), std::string::npos);
    EXPECT_FALSE(run({"--rate", "0.1x"}));
    EXPECT_FALSE(run({"--rate", " 0.1"}));
    EXPECT_FALSE(run({"--count", ""}));
    EXPECT_EQ(count, 0);
    EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST_F(ParserFixture, UnsignedTakesNoSign)
{
    EXPECT_FALSE(run({"--seed", "-5"}));
    EXPECT_FALSE(run({"--seed=+5"}));
    EXPECT_EQ(seed, 0u);
    EXPECT_TRUE(run({"--seed", "18446744073709551615"}));
    EXPECT_EQ(seed, 18446744073709551615ull);
    EXPECT_FALSE(run({"--seed", "18446744073709551616"}));
}

TEST_F(ParserFixture, OutOfRangeAndNonFiniteRejected)
{
    EXPECT_FALSE(run({"--count", "99999999999"}));
    EXPECT_FALSE(run({"--rate", "nan"}));
    EXPECT_FALSE(run({"--rate", "inf"}));
    EXPECT_TRUE(run({"--rate", "1e-2"}));
    EXPECT_DOUBLE_EQ(rate, 0.01);
}

TEST_F(ParserFixture, BadFlagValueRejected)
{
    EXPECT_FALSE(run({"--flag=yes"}));
    EXPECT_FALSE(flag);
}

TEST(ParseNumber, WholeTokenOnly)
{
    double d = -1.0;
    EXPECT_TRUE(parseNumber("0.05", &d));
    EXPECT_DOUBLE_EQ(d, 0.05);
    EXPECT_FALSE(parseNumber("abc", &d));
    EXPECT_FALSE(parseNumber("0.05,", &d));
    EXPECT_DOUBLE_EQ(d, 0.05);  // untouched on failure
    int i = 7;
    EXPECT_FALSE(parseNumber("3.5", &i));
    EXPECT_EQ(i, 7);
    std::uint64_t u = 0;
    EXPECT_FALSE(parseNumber("-1", &u));
    EXPECT_TRUE(parseNumber("42", &u));
    EXPECT_EQ(u, 42u);
}

TEST(ParseNumbers, EveryItemChecked)
{
    std::vector<double> loads{9.0};
    EXPECT_FALSE(parseNumbers("0.05,abc", &loads));
    EXPECT_FALSE(parseNumbers("", &loads));
    EXPECT_FALSE(parseNumbers("0.05,", &loads));
    EXPECT_EQ(loads, std::vector<double>{9.0});  // untouched on failure
    EXPECT_TRUE(parseNumbers("0.05,0.1", &loads));
    EXPECT_EQ(loads, (std::vector<double>{0.05, 0.1}));
    std::vector<int> nodes;
    EXPECT_FALSE(parseNumbers("5,2x", &nodes));
    EXPECT_TRUE(parseNumbers("5,21,22", &nodes));
    EXPECT_EQ(nodes, (std::vector<int>{5, 21, 22}));
}

TEST(OptionParserDeath, DuplicateNamePanics)
{
    OptionParser parser("prog", "test program");
    int a = 0;
    parser.addInt("k", "radix", &a);
    EXPECT_DEATH(parser.addInt("k", "again", &a), "registered twice");
}

/** A parser carrying only the shared simulator options. */
struct SimOptionsFixture : ::testing::Test
{
    SimOptionsFixture() : parser("prog", "test program")
    {
        addSimConfigOptions(parser, &opts);
    }

    bool
    run(std::initializer_list<const char *> args, std::string *err = nullptr)
    {
        std::vector<const char *> argv{"prog"};
        argv.insert(argv.end(), args.begin(), args.end());
        return parser.parse(static_cast<int>(argv.size()), argv.data(),
                            err);
    }

    OptionParser parser;
    SimConfigOptions opts;
};

TEST_F(SimOptionsFixture, EveryFieldHasOneSpelling)
{
    ASSERT_TRUE(run({"--protocol", "SR", "--topology", "express",
                     "--k", "8", "--n", "3", "--express-gap", "3",
                     "--df-routers", "5", "--df-global", "2",
                     "--length", "16", "--scout-k", "3", "--m", "4",
                     "--adaptive-vcs", "3", "--escape-vcs", "1",
                     "--buffers", "6", "--load", "0.2", "--pattern",
                     "transpose", "--tail-ack", "--hardware-acks",
                     "--verify-cwg", "--recovery", "--victim", "random",
                     "--heal-budget", "5", "--seed", "99", "--retries",
                     "7", "--no-event-skip"}));
    SimConfig cfg;
    opts.apply(&cfg);
    EXPECT_EQ(cfg.protocol, Protocol::Scouting);
    EXPECT_EQ(cfg.topology, TopologyKind::Express);
    EXPECT_EQ(cfg.k, 8);
    EXPECT_EQ(cfg.n, 3);
    EXPECT_EQ(cfg.expressGap, 3);
    EXPECT_EQ(cfg.dfRouters, 5);
    EXPECT_EQ(cfg.dfGlobal, 2);
    EXPECT_EQ(cfg.msgLength, 16);
    EXPECT_EQ(cfg.scoutK, 3);
    EXPECT_EQ(cfg.misrouteLimit, 4);
    EXPECT_EQ(cfg.adaptiveVcs, 3);
    EXPECT_EQ(cfg.escapeVcs, 1);
    EXPECT_EQ(cfg.bufDepth, 6);
    EXPECT_DOUBLE_EQ(cfg.load, 0.2);
    EXPECT_EQ(cfg.pattern, TrafficPattern::Transpose);
    EXPECT_TRUE(cfg.tailAck);
    EXPECT_TRUE(cfg.hardwareAcks);
    EXPECT_TRUE(cfg.verifyCwg);
    EXPECT_TRUE(cfg.recoveryMode);
    EXPECT_EQ(cfg.victimPolicy, VictimPolicy::RandomSeeded);
    EXPECT_EQ(cfg.maxHealAttempts, 5);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_EQ(cfg.maxRetries, 7);
    EXPECT_FALSE(cfg.eventEngine);
}

TEST_F(SimOptionsFixture, LegacySpellingsAreGone)
{
    for (const char *legacy : {"--K", "--tailack", "--hw-acks", "--mesh"}) {
        std::string err;
        EXPECT_FALSE(run({legacy, "1"}, &err)) << legacy;
        EXPECT_NE(err.find("unknown option"), std::string::npos) << legacy;
    }
}

TEST_F(SimOptionsFixture, AppliesOnTopOfAnyConfig)
{
    ASSERT_TRUE(run({"--load", "0.2", "--tail-ack=0"}));
    EXPECT_TRUE(opts.given("load"));
    EXPECT_TRUE(opts.given("tail-ack"));
    EXPECT_FALSE(opts.given("k"));

    SimConfig cell;
    cell.k = 4;
    cell.scoutK = 3;
    cell.tailAck = true;
    cell.load = 0.05;
    opts.apply(&cell);
    EXPECT_EQ(cell.k, 4);  // not given: the cell keeps its value
    EXPECT_EQ(cell.scoutK, 3);
    EXPECT_FALSE(cell.tailAck);
    EXPECT_DOUBLE_EQ(cell.load, 0.2);
}

TEST_F(SimOptionsFixture, LaterOptionWins)
{
    ASSERT_TRUE(run({"--k", "4", "--k", "6"}));
    SimConfig cfg;
    opts.apply(&cfg);
    EXPECT_EQ(cfg.k, 6);
}

TEST_F(SimOptionsFixture, TopologyKeepsWrapConsistent)
{
    ASSERT_TRUE(run({"--topology", "mesh"}));
    SimConfig cfg;
    opts.apply(&cfg);
    EXPECT_EQ(cfg.effectiveTopology(), TopologyKind::Mesh);
    EXPECT_FALSE(cfg.wrap);
}

TEST_F(SimOptionsFixture, EnumValuesRejectedWhileParsing)
{
    const std::pair<const char *, const char *> bad[] = {
        {"--protocol", "XX"},  {"--topology", "ring"},
        {"--pattern", "zigzag"}, {"--victim", "oldest"},
        {"--classes", "pattern=zigzag,load=0.1"},
    };
    for (const auto &[name, value] : bad) {
        std::string err;
        EXPECT_FALSE(run({name, value}, &err)) << name;
        EXPECT_EQ(err.rfind(std::string("bad value '") + value +
                                "' for " + name + ": ",
                            0),
                  0u)
            << err;
    }
    std::string err;
    EXPECT_FALSE(run({"--protocol", "XX"}, &err));
    EXPECT_NE(err.find("expected DOR | DP | SR | PCS | MB-m | TP"),
              std::string::npos);
    SimConfig cfg;
    opts.apply(&cfg);  // nothing rejected was recorded
    EXPECT_EQ(cfg.protocol, SimConfig{}.protocol);
}

TEST_F(SimOptionsFixture, ClassesSpecParsedOnce)
{
    ASSERT_TRUE(
        run({"--classes", "pattern=uniform,load=0.10,outstanding=2"}));
    SimConfig cfg;
    opts.apply(&cfg);
    ASSERT_EQ(cfg.trafficClasses.size(), 1u);
    EXPECT_EQ(cfg.trafficClasses[0].outstanding, 2);
}

TEST(SimOptionsSubset, RegistersOnlyNamedOptions)
{
    OptionParser parser("prog", "test program");
    SimConfigOptions opts;
    addSimConfigOptions(parser, &opts, {"scout-k"});
    const char *ok[] = {"prog", "--scout-k", "3"};
    EXPECT_TRUE(parser.parse(3, ok));
    const char *other[] = {"prog", "--k", "3"};
    EXPECT_FALSE(parser.parse(3, other));
    SimConfig cfg;
    opts.apply(&cfg);
    EXPECT_EQ(cfg.scoutK, 3);
}

} // namespace
} // namespace tpnet
