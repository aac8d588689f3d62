/**
 * @file
 * Minimal command-line option parser for the tools and benches, plus
 * the one registration of every SimConfig-backed simulator option.
 *
 * Supports `--name value`, `--name=value`, boolean flags (`--flag` /
 * `--flag=0`), and generated `--help` text. No external dependencies.
 * Every value is checked while parsing: numbers must parse whole, and
 * named values (protocol, topology, pattern, ...) must name something,
 * so a tool never sees a half-parsed command line.
 */

#ifndef TPNET_SIM_OPTIONS_HPP
#define TPNET_SIM_OPTIONS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config_fields.hpp"

namespace tpnet {

/**
 * Strict number parsing, the one reader of every number in argv, the
 * environment and spec strings: the whole token must be one number of
 * the type (no blanks, no trailing characters, no out-of-range or
 * non-finite values); an unsigned value takes no sign.
 * @p out is only written on success. Defined for int, std::uint64_t
 * and double.
 */
template <typename T>
bool parseNumber(const std::string &text, T *out);

/**
 * A non-empty comma-separated list, each item parsed by parseNumber()
 * (int or double). @p out is only written on success.
 */
template <typename T>
bool parseNumbers(const std::string &csv, std::vector<T> *out);

/** Declarative command-line parser. */
class OptionParser
{
  public:
    /**
     * Checks and stores one option value. Returns false to reject the
     * value; @p why may then say what was expected.
     */
    using Setter =
        std::function<bool(const std::string &value, std::string *why)>;

    OptionParser(std::string program, std::string description);

    void addFlag(const std::string &name, const std::string &help,
                 bool *target);
    /** A flag whose value (on or off) goes to @p set. */
    void addFlag(const std::string &name, const std::string &help,
                 std::function<void(bool)> set);
    /** An int, std::uint64_t or double option, read by parseNumber(). */
    template <typename T>
    void addNumber(const std::string &name, const std::string &help,
                   T *target);
    void addString(const std::string &name, const std::string &help,
                   std::string *target);

    /**
     * An option whose value @p set checks and stores while parsing
     * (enum names, spec strings). @p metavar names the value in the
     * usage text, e.g. "<name>".
     */
    void addValue(const std::string &name, const std::string &metavar,
                  const std::string &help, Setter set);

    /**
     * Register the standard `--jobs` knob shared by every tool and
     * bench: worker threads for sweeps / campaign grids (0 = the
     * TPNET_JOBS environment variable, else all hardware threads).
     * Results are bit-identical for every value.
     */
    void addJobs(int *target);

    /**
     * Parse argv. On failure, @p error (if non-null) receives a
     * message. `--help` sets helpRequested() and returns true.
     */
    bool parse(int argc, const char *const *argv,
               std::string *error = nullptr);

    /**
     * parse() the way every tool does it: a usage error prints the
     * message and the usage text to stderr and exits 2; `--help`
     * prints the usage text to stdout and exits 0.
     */
    void parseOrExit(int argc, const char *const *argv);

    bool helpRequested() const { return helpRequested_; }

    /** Generated usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string name;
        std::string help;
        std::string metavar;  ///< empty for a flag
        Setter set;
    };

    const Option *find(const std::string &name) const;

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    bool helpRequested_ = false;
};

/**
 * The simulator options argv gave, kept in argv order so apply() can
 * replay them onto any config: a tool's defaults, a recorded scenario,
 * or every cell of a campaign grid. Options argv did not give leave
 * the config alone, so no sentinel value ever means "keep".
 */
class SimConfigOptions
{
  public:
    /** Set the field of every given option in @p cfg. */
    void apply(SimConfig *cfg) const;

    /** True if argv gave `--name`. */
    bool given(const std::string &name) const;

    /** True if argv gave the option of SimConfig member @p member. */
    template <typename T>
    bool
    given(T SimConfig::*member) const
    {
        return given(optionOf(member));
    }

    /** Note that argv gave `--name`, with effect @p set. */
    void record(const std::string &name,
                std::function<void(SimConfig &)> set);

  private:
    std::vector<std::pair<std::string, std::function<void(SimConfig &)>>>
        given_;
};

/**
 * Register every shared simulator option of the SimConfig field table
 * (sim/config_fields.hpp) on @p parser, recording into @p out. The
 * table is the only place these options are spelled; every tool shares
 * the spellings. A non-empty @p only registers just the options it
 * names.
 */
void addSimConfigOptions(OptionParser &parser, SimConfigOptions *out,
                         const std::vector<std::string> &only = {});

/**
 * The argv words (`--name value`, or `--flag` / `--flag=0`) of every
 * shared simulator option whose value in @p cfg differs from @p ref.
 * Parsed and applied over @p ref they give back @p cfg's options
 * exactly: numbers round-trip, enums and classes print in the spelling
 * their parser reads.
 */
std::vector<std::string> formatSimConfigOptions(const SimConfig &cfg,
                                                const SimConfig &ref);

} // namespace tpnet

#endif // TPNET_SIM_OPTIONS_HPP
