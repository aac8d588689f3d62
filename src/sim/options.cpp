#include "sim/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "sim/log.hpp"

namespace tpnet {

namespace {

template <typename T>
bool
parseWhole(const std::string &text, T *out)
{
    // from_chars takes no '+' and, for an unsigned type, no '-': a
    // negative count never wraps to ~2^64.
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return false;
    }
    *out = value;
    return true;
}

template <typename T>
bool
parseList(const std::string &csv, std::vector<T> *out)
{
    std::vector<T> items;
    for (std::size_t start = 0;;) {
        const std::size_t comma = csv.find(',', start);
        if (!parseWhole(csv.substr(start, comma - start),
                        &items.emplace_back()))
            return false;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = std::move(items);
    return true;
}

template <typename T>
const char *
metavarOf()
{
    if constexpr (std::is_same_v<T, int>)
        return "<int>";
    else if constexpr (std::is_same_v<T, double>)
        return "<float>";
    else
        return "<u64>";
}

} // namespace

bool
parseNumber(const std::string &text, int *out)
{
    return parseWhole(text, out);
}

bool
parseNumber(const std::string &text, std::uint64_t *out)
{
    return parseWhole(text, out);
}

bool
parseNumber(const std::string &text, double *out)
{
    return parseWhole(text, out);
}

bool
parseNumbers(const std::string &csv, std::vector<int> *out)
{
    return parseList(csv, out);
}

bool
parseNumbers(const std::string &csv, std::vector<double> *out)
{
    return parseList(csv, out);
}

OptionParser::OptionParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{}

void
OptionParser::addValue(const std::string &name, const std::string &metavar,
                       const std::string &help, Setter set)
{
    if (find(name))
        tpnet_panic("option --", name, " registered twice");
    options_.push_back({name, help, metavar, std::move(set)});
}

void
OptionParser::addFlag(const std::string &name, const std::string &help,
                      std::function<void(bool)> set)
{
    addValue(name, "", help,
             [set = std::move(set)](const std::string &v, std::string *) {
                 if (v.empty() || v == "1" || v == "true") {
                     set(true);
                 } else if (v == "0" || v == "false") {
                     set(false);
                 } else {
                     return false;
                 }
                 return true;
             });
}

void
OptionParser::addFlag(const std::string &name, const std::string &help,
                      bool *target)
{
    addFlag(name, help, [target](bool on) { *target = on; });
}

template <typename T>
void
OptionParser::addNumber(const std::string &name, const std::string &help,
                        T *target)
{
    addValue(name, metavarOf<T>(), help,
             [target](const std::string &v, std::string *) {
                 return parseNumber(v, target);
             });
}

void
OptionParser::addInt(const std::string &name, const std::string &help,
                     int *target)
{
    addNumber(name, help, target);
}

void
OptionParser::addUint64(const std::string &name, const std::string &help,
                        std::uint64_t *target)
{
    addNumber(name, help, target);
}

void
OptionParser::addDouble(const std::string &name, const std::string &help,
                        double *target)
{
    addNumber(name, help, target);
}

void
OptionParser::addString(const std::string &name, const std::string &help,
                        std::string *target)
{
    addValue(name, "<str>", help,
             [target](const std::string &v, std::string *) {
                 *target = v;
                 return true;
             });
}

void
OptionParser::addJobs(int *target)
{
    addInt("jobs",
           "worker threads (0 = $TPNET_JOBS, else all hardware "
           "threads); results are identical for every value",
           target);
}

const OptionParser::Option *
OptionParser::find(const std::string &name) const
{
    for (const Option &opt : options_) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

bool
OptionParser::parse(int argc, const char *const *argv, std::string *error)
{
    std::string scratch;
    std::string &err = error ? *error : scratch;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (arg.rfind("--", 0) != 0) {
            err = "unexpected argument '" + arg + "'";
            return false;
        }
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        const Option *opt = find(arg);
        if (!opt) {
            err = "unknown option --" + arg;
            return false;
        }
        if (!has_value && !opt->metavar.empty()) {
            if (i + 1 >= argc) {
                err = "missing value for --" + arg;
                return false;
            }
            value = argv[++i];
        }
        std::string why;
        if (!opt->set(value, &why)) {
            err = "bad value '" + value + "' for --" + arg;
            if (!why.empty())
                err += ": " + why;
            return false;
        }
    }
    return true;
}

void
OptionParser::parseOrExit(int argc, const char *const *argv)
{
    std::string error;
    if (!parse(argc, argv, &error)) {
        std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
                     usage().c_str());
        std::exit(2);
    }
    if (helpRequested_) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

std::string
OptionParser::usage() const
{
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const Option &opt : options_) {
        os << "  --" << opt.name
           << (opt.metavar.empty() ? "[=0|1]" : " " + opt.metavar)
           << "\n      " << opt.help << "\n";
    }
    return os.str();
}

// --- The simulator options -------------------------------------------

void
SimConfigOptions::apply(SimConfig *cfg) const
{
    for (const auto &g : given_)
        g.second(*cfg);
}

bool
SimConfigOptions::given(const std::string &name) const
{
    return std::any_of(given_.begin(), given_.end(),
                       [&name](const auto &g) { return g.first == name; });
}

void
SimConfigOptions::record(const std::string &name,
                         std::function<void(SimConfig &)> set)
{
    given_.emplace_back(name, std::move(set));
}

namespace {

/** Registers SimConfig fields on @p parser, recording into @p out. */
struct Registrar
{
    OptionParser &parser;
    SimConfigOptions *out;

    /** A numeric field. */
    template <typename T>
    void
    number(const char *name, const char *help, T SimConfig::*field) const
    {
        parser.addValue(name, metavarOf<T>(), help,
                        [out = out, name, field](const std::string &v,
                                                 std::string *) {
                            T x{};
                            if (!parseNumber(v, &x))
                                return false;
                            out->record(name, [field, x](SimConfig &c) {
                                c.*field = x;
                            });
                            return true;
                        });
    }

    /** A boolean field. */
    void
    flag(const char *name, const char *help, bool SimConfig::*field) const
    {
        parser.addFlag(name, help, [out = out, name, field](bool on) {
            out->record(name, [field, on](SimConfig &c) { c.*field = on; });
        });
    }

    /** An enum named by one of @p choices, stored by @p set. */
    template <typename E>
    void
    choice(const char *name, const char *help, const char *choices,
           bool (*parseName)(const std::string &, E *),
           void (*set)(SimConfig &, E)) const
    {
        parser.addValue(
            name, "<name>", std::string(help) + ": " + choices,
            [out = out, name, choices, parseName,
             set](const std::string &v, std::string *why) {
                E e{};
                if (!parseName(v, &e)) {
                    *why = std::string("expected ") + choices;
                    return false;
                }
                out->record(name, [set, e](SimConfig &c) { set(c, e); });
                return true;
            });
    }
};

} // namespace

void
addSimConfigOptions(OptionParser &parser, SimConfigOptions *out,
                    const std::vector<std::string> &only)
{
    if (!only.empty()) {
        OptionParser all(parser.program_, parser.description_);
        addSimConfigOptions(all, out);
        for (OptionParser::Option &opt : all.options_) {
            if (std::find(only.begin(), only.end(), opt.name) != only.end())
                parser.addValue(opt.name, opt.metavar, opt.help,
                                std::move(opt.set));
        }
        return;
    }

    const Registrar r{parser, out};
    r.choice<Protocol>(
        "protocol", "routing protocol", "DOR | DP | SR | PCS | MB-m | TP",
        parseProtocolName, [](SimConfig &c, Protocol p) { c.protocol = p; });
    r.choice<TopologyKind>(
        "topology", "topology family", "torus | mesh | express | dragonfly",
        parseTopologyName, [](SimConfig &c, TopologyKind t) {
            c.topology = t;
            c.wrap = t != TopologyKind::Mesh;
        });
    r.number("k", "cube radix (nodes per dimension)", &SimConfig::k);
    r.number("n", "cube dimensions", &SimConfig::n);
    r.number("express-gap", "express-channel stride (--topology express)",
             &SimConfig::expressGap);
    r.number("df-routers", "routers per group (--topology dragonfly)",
             &SimConfig::dfRouters);
    r.number("df-global", "global channels per router (--topology "
                          "dragonfly)",
             &SimConfig::dfGlobal);
    r.number("length", "data flits per message", &SimConfig::msgLength);
    r.number("scout-k", "scouting distance K", &SimConfig::scoutK);
    r.number("m", "misroute limit", &SimConfig::misrouteLimit);
    r.number("adaptive-vcs", "adaptive VCs per link", &SimConfig::adaptiveVcs);
    r.number("escape-vcs", "escape (dateline) VCs per link",
             &SimConfig::escapeVcs);
    r.number("buffers", "DIBU depth in flits", &SimConfig::bufDepth);
    r.number("load", "offered load, data flits/node/cycle", &SimConfig::load);
    r.choice<TrafficPattern>(
        "pattern", "traffic pattern",
        "uniform | bit-complement | transpose | neighbor | tornado | "
        "bit-reversal | shuffle",
        parsePatternName,
        [](SimConfig &c, TrafficPattern p) { c.pattern = p; });
    parser.addValue(
        "classes", "<spec>",
        "workload classes replacing --pattern/--load: "
        "\"pattern=<name>,load=<f>[,len=][,prio=][,hotspot=][,hotspots=]"
        "[,burst=][,duty=][,outstanding=][,replylen=]\" joined by ';'",
        [out](const std::string &v, std::string *why) {
            std::vector<TrafficClassConfig> classes;
            if (!parseTrafficClasses(v, &classes, why))
                return false;
            out->record("classes", [classes](SimConfig &c) {
                c.trafficClasses = classes;
            });
            return true;
        });
    r.flag("tail-ack", "hold paths + message acks + retransmit",
           &SimConfig::tailAck);
    r.flag("hardware-acks", "dedicated acknowledgment signalling",
           &SimConfig::hardwareAcks);
    r.flag("verify-cwg", "run the channel-wait-for-graph deadlock "
                         "analyzer (Theorem 3 checked online)",
           &SimConfig::verifyCwg);
    r.flag("recovery", "knot-triggered deadlock recovery: free the escape "
                       "bandwidth for adaptive use and heal detected "
                       "knots by victim abort + source retransmit",
           &SimConfig::recoveryMode);
    r.choice<VictimPolicy>(
        "victim", "recovery victim policy", "youngest | fewest-hops | random",
        parseVictimPolicyName,
        [](SimConfig &c, VictimPolicy p) { c.victimPolicy = p; });
    r.number("heal-budget", "max heals per knot before livelock escalation",
             &SimConfig::maxHealAttempts);
    r.number("seed", "RNG seed", &SimConfig::seed);
    r.number("retries", "source retries before a message is undeliverable",
             &SimConfig::maxRetries);
    parser.addFlag("no-event-skip",
                   "disable the event engine's idle-cycle fast path "
                   "(step every cycle; results are bit-identical)",
                   [out](bool on) {
                       out->record("no-event-skip", [on](SimConfig &c) {
                           c.eventEngine = c.eventEngine && !on;
                       });
                   });
}

} // namespace tpnet
