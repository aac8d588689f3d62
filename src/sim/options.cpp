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

} // namespace

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
