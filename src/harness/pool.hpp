// Header-only fixed-size thread pool: the dispatch primitive behind both the
// bench sweep runner (harness/parallel.hpp) and the explorer's parallel
// frontier (sim/explorer.cpp).
//
// It lives below the harness library on purpose: rwr_sim cannot link
// rwr_harness (the dependency arrow points the other way), but the explorer
// still wants the exact same pool semantics as the bench grids, including
// the first-exception-wins rethrow. Keeping one inline implementation means
// "bit-identical for any --jobs value" is one property proved once
// (test_parallel.cpp) instead of two implementations drifting apart.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rwr::harness {

/// Worker count meaning "use every hardware thread".
[[nodiscard]] inline unsigned default_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// Runs fn(i) for every i in [0, count) on (up to) `jobs` worker threads.
/// Blocks until all dispatched cells ran. Once the first exception thrown
/// by any cell is recorded, no further cells are dispatched; cells already
/// in flight on other workers still finish. That exception is rethrown
/// here after the pool joins.
inline void parallel_for(std::size_t count, unsigned jobs,
                         const std::function<void(std::size_t)>& fn) {
    if (count == 0) {
        return;
    }
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, jobs == 0 ? default_jobs() : jobs), count));
    if (workers == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) {
                return;
            }
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
                // Stop handing out further cells; in-flight cells finish.
                next.store(count, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back(worker);
    }
    for (auto& t : pool) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

}  // namespace rwr::harness
