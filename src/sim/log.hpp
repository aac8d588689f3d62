/**
 * @file
 * Minimal gem5-style error reporting: panic and fatal.
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a user
 * configuration error and exits.
 */

#ifndef TPNET_SIM_LOG_HPP
#define TPNET_SIM_LOG_HPP

#include <sstream>
#include <string>

namespace tpnet {

/** Abort the process after reporting an internal simulator bug. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Exit the process after reporting a user/configuration error. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** While alive, every panic of the calling thread names @p what (e.g.
 *  "campaign seed 7"), the innermost of nested guards. */
class PanicContext
{
  public:
    explicit PanicContext(const std::string &what);
    ~PanicContext();

  private:
    std::string outer_;  ///< the context this guard shadows
};

namespace detail {

/** Build a string from stream-style arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace tpnet

#define tpnet_panic(...) \
    ::tpnet::panicImpl(__FILE__, __LINE__, ::tpnet::detail::format(__VA_ARGS__))

#define tpnet_fatal(...) \
    ::tpnet::fatalImpl(__FILE__, __LINE__, ::tpnet::detail::format(__VA_ARGS__))

#endif // TPNET_SIM_LOG_HPP
