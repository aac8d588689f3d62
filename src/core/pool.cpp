#include "core/pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/log.hpp"
#include "sim/options.hpp"

namespace tpnet {

std::size_t
resolveJobs(int requested)
{
    if (requested > 0)
        return static_cast<std::size_t>(requested);
    if (const char *env = std::getenv("TPNET_JOBS")) {
        int v = 0;
        if (!parseNumber(env, &v))
            tpnet_fatal("TPNET_JOBS must be a whole number, got \"", env,
                        "\"");
        if (v > 0)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(std::size_t n, std::size_t jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (jobs > n)
        jobs = n;

    std::atomic<std::size_t> cursor{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;  // guarded by errorMutex
    auto worker = [&] {
        try {
            for (;;) {
                const std::size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!firstError)
                firstError = std::current_exception();
        }
    };
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    try {
        for (std::size_t w = 0; w < jobs; ++w)
            workers.emplace_back(worker);
    } catch (...) {
        // A thread failed to start: stop handing out indices, join the
        // threads that did start, and report the failure.
        cursor = n;
        for (std::thread &w : workers)
            w.join();
        throw;
    }
    for (std::thread &w : workers)
        w.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace tpnet
