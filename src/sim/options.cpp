#include "sim/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "sim/config_fields.hpp"
#include "sim/log.hpp"

namespace tpnet {

template <typename T>
bool
parseNumber(const std::string &text, T *out)
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
parseNumbers(const std::string &csv, std::vector<T> *out)
{
    std::vector<T> items;
    for (std::size_t start = 0;;) {
        const std::size_t comma = csv.find(',', start);
        if (!parseNumber(csv.substr(start, comma - start),
                         &items.emplace_back()))
            return false;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = std::move(items);
    return true;
}

template bool parseNumber(const std::string &, int *);
template bool parseNumber(const std::string &, std::uint64_t *);
template bool parseNumber(const std::string &, double *);
template bool parseNumbers(const std::string &, std::vector<int> *);
template bool parseNumbers(const std::string &, std::vector<double> *);

namespace {

/** The usage text's name for a value of type @p T. */
template <typename T>
const char *
metavarOf()
{
    if constexpr (std::is_same_v<T, int>)
        return "<int>";
    else if constexpr (std::is_same_v<T, double>)
        return "<float>";
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        return "<u64>";
    else if constexpr (std::is_enum_v<T>)
        return "<name>";
    else
        return "<spec>";
}

} // namespace

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

template void OptionParser::addNumber(const std::string &,
                                      const std::string &, int *);
template void OptionParser::addNumber(const std::string &,
                                      const std::string &, std::uint64_t *);
template void OptionParser::addNumber(const std::string &,
                                      const std::string &, double *);

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
    addNumber("jobs",
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

/** Parse one value of a SimConfig field of type @p T. */
template <typename T>
bool
parseField(const std::string &v, T *out, std::string *why)
{
    if constexpr (std::is_enum_v<T>) {
        if (parseEnumName(v, out))
            return true;
        *why = "expected " + enumChoices<T>();
        return false;
    } else if constexpr (std::is_arithmetic_v<T>) {
        return parseNumber(v, out);
    } else {
        return parseTrafficClasses(v, out, why);
    }
}

/** The value @p v spelled so that parseField() reads it back exactly. */
template <typename T>
std::string
formatField(const T &v)
{
    if constexpr (std::is_enum_v<T>)
        return enumSpelling(v);
    else if constexpr (std::is_same_v<T, double>)
        return formatExact(v);
    else if constexpr (std::is_arithmetic_v<T>)
        return std::to_string(v);
    else
        return formatTrafficClasses(v);
}

/** Read one `key=value` of a class spec into @p tc. */
bool
parseClassKey(const std::string &kv, TrafficClassConfig *tc,
              std::string *why)
{
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
        *why = "expected key=value, got \"" + kv + "\"";
        return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    bool known = false;
    bool ok = false;
    std::string expected;
    TrafficClassConfig::forEachField([&](const auto &k) {
        if (key == k.name) {
            known = true;
            ok = parseField(val, &(tc->*k.member), &expected);
        }
    });
    if (!known)
        *why = "unknown class key \"" + key + "\"";
    else if (!ok)
        *why = "bad value for " + key + ": \"" + val + "\"" +
               (expected.empty() ? "" : " (" + expected + ")");
    return ok;
}

} // namespace

bool
parseTrafficClasses(const std::string &spec,
                    std::vector<TrafficClassConfig> *out,
                    std::string *err)
{
    std::string scratch;
    std::string &why = err ? *err : scratch;
    std::vector<TrafficClassConfig> classes;
    std::istringstream specStream(spec);
    for (std::string clause; std::getline(specStream, clause, ';');) {
        if (clause.empty())
            continue;
        TrafficClassConfig &tc = classes.emplace_back();
        std::istringstream clauseStream(clause);
        for (std::string kv; std::getline(clauseStream, kv, ',');)
            if (!parseClassKey(kv, &tc, &why))
                return false;
    }
    if (classes.empty()) {
        why = "workload spec describes no classes";
        return false;
    }
    *out = std::move(classes);
    return true;
}

std::string
formatTrafficClasses(const std::vector<TrafficClassConfig> &classes)
{
    const TrafficClassConfig defaults{};
    std::string out;
    for (const TrafficClassConfig &tc : classes) {
        if (!out.empty())
            out += ';';
        const char *sep = "";
        TrafficClassConfig::forEachField([&](const auto &k) {
            if (k.always || tc.*k.member != defaults.*k.member) {
                out += sep + std::string(k.name) + "=" +
                       formatField(tc.*k.member);
                sep = ",";
            }
        });
    }
    return out;
}

const char *
trafficClassesHelp()
{
    static const std::string help = [] {
        std::string syntax;
        TrafficClassConfig::forEachField([&syntax](const auto &k) {
            using T = typename std::remove_cvref_t<decltype(k)>::Type;
            if (k.always)
                syntax += (syntax.empty() ? "" : ",") + std::string(k.name) +
                          (std::is_enum_v<T> ? "=<name>" : "=<f>");
            else
                syntax += "[," + std::string(k.name) + "=]";
        });
        return "workload classes replacing --pattern/--load: \"" + syntax +
               "\" joined by ';'";
    }();
    return help.c_str();
}

void
addSimConfigOptions(OptionParser &parser, SimConfigOptions *out,
                    const std::vector<std::string> &only)
{
    forEachConfigField([&](const auto &f) {
        using T = typename std::remove_cvref_t<decltype(f)>::Type;
        if (!f.option || (!only.empty() && std::find(only.begin(), only.end(),
                                                     f.option) == only.end()))
            return;
        const auto record = [out, f](T value) {
            out->record(f.option,
                        [f, value](SimConfig &c) { c.*f.member = value; });
        };
        if constexpr (std::is_same_v<T, bool>) {
            parser.addFlag(f.option, f.help, [record, f](bool on) {
                record(on != f.inverted);
            });
        } else {
            std::string help = f.help;
            if constexpr (std::is_enum_v<T>)
                help += ": " + enumChoices<T>();
            parser.addValue(f.option, metavarOf<T>(), help,
                            [record](const std::string &v, std::string *why) {
                                T value{};
                                if (!parseField(v, &value, why))
                                    return false;
                                record(std::move(value));
                                return true;
                            });
        }
    });
}

std::vector<std::string>
formatSimConfigOptions(const SimConfig &cfg, const SimConfig &ref)
{
    std::vector<std::string> words;
    forEachConfigField([&](const auto &f) {
        using T = typename std::remove_cvref_t<decltype(f)>::Type;
        if (!f.option || cfg.*f.member == ref.*f.member)
            return;
        const std::string name = std::string("--") + f.option;
        if constexpr (std::is_same_v<T, bool>) {
            words.push_back(cfg.*f.member != f.inverted ? name
                                                         : name + "=0");
        } else {
            words.push_back(name);
            words.push_back(formatField(cfg.*f.member));
        }
    });
    return words;
}

} // namespace tpnet
