/** @file Command-line option parser tests. */

#include <gtest/gtest.h>

#include <functional>
#include <type_traits>
#include <utility>

#include "chaos/campaign.hpp"
#include "sim/options.hpp"
#include "topology/registry.hpp"

namespace tpnet {
namespace {

struct ParserFixture : ::testing::Test
{
    ParserFixture()
        : parser("prog", "test program")
    {
        parser.addFlag("flag", "a flag", &flag);
        parser.addNumber("count", "an int", &count);
        parser.addNumber("rate", "a double", &rate);
        parser.addString("name", "a string", &name);
        parser.addNumber("seed", "a u64", &seed);
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
    parser.addNumber("k", "radix", &a);
    EXPECT_DEATH(parser.addNumber("k", "again", &a), "registered twice");
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

TEST_F(SimOptionsFixture, TopologyOptionSelectsTheMesh)
{
    ASSERT_TRUE(run({"--topology", "mesh"}));
    SimConfig cfg;
    opts.apply(&cfg);
    EXPECT_EQ(cfg.topology, TopologyKind::Mesh);
    EXPECT_EQ(makeTopology(cfg)->diameter(), 2 * (cfg.k - 1));
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

/** One change to a SimConfig, named for failure messages. */
struct Perturbation
{
    const char *name;
    std::function<void(SimConfig &)> apply;
};

/** Workload classes whose loads have no short decimal spelling. */
std::vector<TrafficClassConfig>
oddClasses()
{
    std::vector<TrafficClassConfig> classes(2);
    classes[0].pattern = TrafficPattern::NeighborPlus;
    classes[0].load = 0.1 / 3.0;
    classes[0].priority = 1;
    classes[1].load = 0.01875;
    classes[1].hotspotFraction = 0.1;
    classes[1].hotspotCount = 4;
    classes[1].burstLen = 8;
    classes[1].burstDuty = 1.0 / 3.0;
    classes[1].outstanding = 2;
    classes[1].replyLength = 4;
    return classes;
}

/** A change to the value of every shared simulator option. */
std::vector<Perturbation>
optionPerturbations()
{
    return {
        {"protocol", [](SimConfig &c) { c.protocol = Protocol::MBm; }},
        {"topology",
         [](SimConfig &c) { c.topology = TopologyKind::Dragonfly; }},
        {"k", [](SimConfig &c) { c.k = 7; }},
        {"n", [](SimConfig &c) { c.n = 3; }},
        {"express-gap", [](SimConfig &c) { c.expressGap = 3; }},
        {"df-routers", [](SimConfig &c) { c.dfRouters = 5; }},
        {"df-global", [](SimConfig &c) { c.dfGlobal = 2; }},
        {"length", [](SimConfig &c) { c.msgLength = 12; }},
        {"scout-k", [](SimConfig &c) { c.scoutK = 3; }},
        {"m", [](SimConfig &c) { c.misrouteLimit = 4; }},
        {"adaptive-vcs", [](SimConfig &c) { c.adaptiveVcs = 3; }},
        {"escape-vcs", [](SimConfig &c) { c.escapeVcs = 1; }},
        {"buffers", [](SimConfig &c) { c.bufDepth = 6; }},
        {"load 0.01875", [](SimConfig &c) { c.load = 0.01875; }},
        {"load 0.03125", [](SimConfig &c) { c.load = 0.03125; }},
        {"load 0.1/3", [](SimConfig &c) { c.load = 0.1 / 3.0; }},
        {"pattern",
         [](SimConfig &c) { c.pattern = TrafficPattern::NeighborPlus; }},
        {"classes", [](SimConfig &c) { c.trafficClasses = oddClasses(); }},
        {"tail-ack", [](SimConfig &c) { c.tailAck = !c.tailAck; }},
        {"hardware-acks",
         [](SimConfig &c) { c.hardwareAcks = !c.hardwareAcks; }},
        {"verify-cwg", [](SimConfig &c) { c.verifyCwg = !c.verifyCwg; }},
        {"recovery",
         [](SimConfig &c) { c.recoveryMode = !c.recoveryMode; }},
        {"victim",
         [](SimConfig &c) { c.victimPolicy = VictimPolicy::RandomSeeded; }},
        {"heal-budget", [](SimConfig &c) { c.maxHealAttempts = 5; }},
        {"seed", [](SimConfig &c) { c.seed = 99; }},
        {"retries", [](SimConfig &c) { c.maxRetries = 7; }},
        {"no-event-skip",
         [](SimConfig &c) { c.eventEngine = !c.eventEngine; }},
    };
}

/** @p ref with the options formatSimConfigOptions(cfg, ref) spells. */
SimConfig
replayed(const SimConfig &cfg, const SimConfig &ref)
{
    const std::vector<std::string> words = formatSimConfigOptions(cfg, ref);
    std::vector<const char *> argv{"prog"};
    for (const std::string &w : words)
        argv.push_back(w.c_str());
    OptionParser parser("prog", "test program");
    SimConfigOptions opts;
    addSimConfigOptions(parser, &opts);
    std::string err;
    EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data(),
                             &err))
        << err;
    SimConfig out = ref;
    opts.apply(&out);
    return out;
}

TEST(SimOptionsRoundTrip, EveryOptionReadsBackExactly)
{
    // Two references, so every flag is flipped both on and off.
    SimConfig plain;
    SimConfig flipped;
    flipped.tailAck = flipped.hardwareAcks = flipped.verifyCwg = true;
    flipped.recoveryMode = true;
    flipped.eventEngine = !plain.eventEngine;
    for (const SimConfig &ref : {plain, flipped}) {
        SimConfig all = ref;
        for (const Perturbation &p : optionPerturbations()) {
            SimConfig cfg = ref;
            p.apply(cfg);
            p.apply(all);
            EXPECT_FALSE(formatSimConfigOptions(cfg, ref).empty()) << p.name;
            const SimConfig back = replayed(cfg, ref);
            EXPECT_EQ(chaos::configDigest(back), chaos::configDigest(cfg))
                << p.name;
            EXPECT_EQ(back.eventEngine, cfg.eventEngine) << p.name;
        }
        EXPECT_TRUE(formatSimConfigOptions(ref, ref).empty());
        EXPECT_EQ(chaos::configDigest(replayed(all, ref)),
                  chaos::configDigest(all));
    }

    // The shrinker's halved loads survive bit for bit.
    for (double load : {0.01875, 0.03125}) {
        SimConfig cfg;
        cfg.load = load;
        EXPECT_EQ(replayed(cfg, SimConfig{}).load, load);
    }
}

TEST(ClassKeys, EveryKeyRoundTripsAndCountsInTheDigest)
{
    // Each key of the table in turn, set away from TrafficClassConfig{}:
    // format -> parse gives back the class, and the digest sees it.
    SimConfig plain;
    plain.trafficClasses.resize(1);
    int keys = 0;
    TrafficClassConfig::forEachField([&](const auto &k) {
        using T = typename std::remove_cvref_t<decltype(k)>::Type;
        TrafficClassConfig tc;
        if constexpr (std::is_enum_v<T>)
            tc.*k.member = TrafficPattern::Tornado;
        else if constexpr (std::is_same_v<T, double>)
            tc.*k.member = 1.0 / 3.0;
        else
            tc.*k.member += 3;
        const std::string spec = formatTrafficClasses({tc});
        std::vector<TrafficClassConfig> back;
        std::string err;
        EXPECT_TRUE(parseTrafficClasses(spec, &back, &err)) << err;
        EXPECT_EQ(back, std::vector<TrafficClassConfig>{tc})
            << k.name << ": " << spec;
        SimConfig cfg = plain;
        cfg.trafficClasses[0] = tc;
        EXPECT_NE(chaos::configDigest(cfg), chaos::configDigest(plain))
            << k.name;
        ++keys;
    });
    EXPECT_EQ(keys, 10);
    // Keys at their default value are left out, but pattern and load
    // are always spelled; the help text lists the keys of the table.
    EXPECT_EQ(formatTrafficClasses(plain.trafficClasses),
              "pattern=uniform,load=0");
    EXPECT_STREQ(trafficClassesHelp(),
                 "workload classes replacing --pattern/--load: "
                 "\"pattern=<name>,load=<f>[,len=][,prio=][,hotspot=]"
                 "[,hotspots=][,burst=][,duty=][,outstanding=]"
                 "[,replylen=]\" joined by ';'");
}

TEST(ConfigDigest, EveryFieldButTheEngineCounts)
{
    std::vector<Perturbation> fields = optionPerturbations();
    fields.erase(fields.end() - 1);  // no-event-skip: checked below
    const std::vector<Perturbation> unset = {
        {"retryBackoff", [](SimConfig &c) { c.retryBackoff = 7; }},
        {"injQueueLimit", [](SimConfig &c) { c.injQueueLimit = 3; }},
        {"staticNodeFaults", [](SimConfig &c) { c.staticNodeFaults = 2; }},
        {"staticLinkFaults", [](SimConfig &c) { c.staticLinkFaults = 2; }},
        {"dynamicNodeFaults",
         [](SimConfig &c) { c.dynamicNodeFaults = 0.5; }},
        {"dynamicLinkFaults",
         [](SimConfig &c) { c.dynamicLinkFaults = 0.5; }},
        {"intermittentFaults",
         [](SimConfig &c) { c.intermittentFaults = 0.5; }},
        {"intermittentDownCycles",
         [](SimConfig &c) { c.intermittentDownCycles = 9; }},
        {"markUnsafe", [](SimConfig &c) { c.markUnsafe = !c.markUnsafe; }},
        {"protectPerimeter",
         [](SimConfig &c) { c.protectPerimeter = !c.protectPerimeter; }},
        {"metricsPeriod", [](SimConfig &c) { c.metricsPeriod = 5; }},
        {"warmup", [](SimConfig &c) { c.warmup = 5; }},
        {"measure", [](SimConfig &c) { c.measure = 5; }},
        {"drain", [](SimConfig &c) { c.drain = 5; }},
        {"watchdog", [](SimConfig &c) { c.watchdog = 5; }},
    };
    fields.insert(fields.end(), unset.begin(), unset.end());
    // Every field of a traffic class, changed in the second class.
    const auto cls = [](auto change) {
        return [change](SimConfig &c) { change(c.trafficClasses.at(1)); };
    };
    const std::vector<Perturbation> classFields = {
        {"class pattern", cls([](TrafficClassConfig &t) {
             t.pattern = TrafficPattern::Tornado; })},
        {"class load", cls([](TrafficClassConfig &t) { t.load = 0.2; })},
        {"class len", cls([](TrafficClassConfig &t) { t.msgLength = 9; })},
        {"class prio", cls([](TrafficClassConfig &t) { t.priority = 2; })},
        {"class hotspot",
         cls([](TrafficClassConfig &t) { t.hotspotFraction = 0.3; })},
        {"class hotspots",
         cls([](TrafficClassConfig &t) { t.hotspotCount = 2; })},
        {"class burst", cls([](TrafficClassConfig &t) { t.burstLen = 3; })},
        {"class duty", cls([](TrafficClassConfig &t) { t.burstDuty = 0.9; })},
        {"class outstanding",
         cls([](TrafficClassConfig &t) { t.outstanding = 5; })},
        {"class replylen",
         cls([](TrafficClassConfig &t) { t.replyLength = 6; })},
    };

    const auto changesDigest = [](const SimConfig &base,
                                  const Perturbation &p) {
        SimConfig cfg = base;
        p.apply(cfg);
        return chaos::configDigest(cfg) != chaos::configDigest(base);
    };
    const SimConfig plain;
    SimConfig classes;
    classes.trafficClasses = oddClasses();
    for (const Perturbation &p : fields)
        EXPECT_TRUE(changesDigest(plain, p)) << p.name;
    for (const Perturbation &p : classFields)
        EXPECT_TRUE(changesDigest(classes, p)) << p.name;
    for (const SimConfig &base : {plain, classes}) {
        EXPECT_FALSE(changesDigest(base, {"engine", [](SimConfig &c) {
                                              c.eventEngine = !c.eventEngine;
                                          }}));
    }
}

} // namespace
} // namespace tpnet
