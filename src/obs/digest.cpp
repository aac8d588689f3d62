#include "obs/digest.hpp"

#include <cstring>

namespace tpnet::obs {

void
StateHasher::f64(double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    u64(u);
}

void
StateHasher::str(const std::string &v)
{
    u64(v.size());
    digest_ = fnv1a64(v.data(), v.size(), digest_);
}

void
DigestTee::onEvent(const TraceEvent &ev)
{
    digest_ = foldTraceEvent(ev, digest_);
    ++records_;
}

} // namespace tpnet::obs
