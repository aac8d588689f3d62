#include "sim/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tpnet {

/// The innermost PanicContext of this thread as " [what]", or empty.
static thread_local std::string panicSuffix;

PanicContext::PanicContext(const std::string &what)
    : outer_(std::exchange(panicSuffix, " [" + what + "]"))
{
}

PanicContext::~PanicContext() { panicSuffix = std::move(outer_); }

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)%s\n", msg.c_str(), file, line,
                 panicSuffix.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace tpnet
