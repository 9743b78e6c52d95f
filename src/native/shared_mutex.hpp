// Id-less facade over AfLock conforming to the std::shared_mutex usage
// pattern, so it composes with std::shared_lock / std::unique_lock:
//
//   rwr::native::AfSharedMutex mtx(/*max_readers=*/64, /*max_writers=*/8);
//   { std::shared_lock lk(mtx);  ... concurrent readers ... }
//   { std::unique_lock lk(mtx);  ... exclusive writer ... }
//
// Threads are lazily assigned reader/writer slots on first use; slots are
// returned when the thread exits. A thread may not hold the lock in both
// modes, nor recursively.
//
// Slot lookup: every slot pool has a process-wide id that is never reused,
// and each thread caches (pool id, slot) pairs in a small direct-mapped
// thread_local array that is trivially destructible. A repeat lookup is one
// load and compare of that entry: no TLS-init call, no hash, no division.
// Only a miss -- a thread's first use of a pool, or an entry evicted by a
// pool whose id maps to the same place -- reaches the thread's lease map.
// An entry left behind by a destroyed mutex never matches, since a later
// mutex gets new ids even where it reuses the old one's address.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/af_params.hpp"
#include "native/af_lock.hpp"

namespace rwr::native {

namespace detail {

/// Thread-slot pool: hands out the lowest free slot, reclaims on thread
/// exit via thread_local destructors.
class SlotPool {
   public:
    explicit SlotPool(std::uint32_t capacity) : id_(next_id()) {
        free_.reserve(capacity);
        for (std::uint32_t i = capacity; i-- > 0;) {
            free_.push_back(i);
        }
    }

    /// Process-wide, never reused, never 0.
    [[nodiscard]] std::uint64_t id() const { return id_; }

    std::uint32_t acquire() {
        std::lock_guard<std::mutex> g(mu_);
        if (free_.empty()) {
            throw std::runtime_error(
                "AfSharedMutex: more concurrent threads than declared slots");
        }
        const std::uint32_t s = free_.back();
        free_.pop_back();
        return s;
    }

    void release(std::uint32_t s) {
        std::lock_guard<std::mutex> g(mu_);
        free_.push_back(s);
    }

   private:
    static std::uint64_t next_id() {
        static std::atomic<std::uint64_t> last{0};
        return last.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    const std::uint64_t id_;
    std::mutex mu_;
    std::vector<std::uint32_t> free_;
};

/// One entry of the per-thread cache in front of ThreadSlots.
struct CachedSlot {
    std::uint64_t pool = 0;  ///< SlotPool::id(); 0 = empty.
    std::uint32_t slot = 0;
};

/// Pool id x is cached in entry x mod 16 (a power of two, so no division).
/// Constant-initialized and trivially destructible, so the thread_local
/// needs no guard and no TLS-init call.
inline std::array<CachedSlot, 16>& slot_cache() {
    thread_local std::array<CachedSlot, 16> cache{};
    return cache;
}

/// Per-thread slot leases keyed by pool id. Pools are owned through
/// shared_ptr and leased through weak_ptr: a thread outliving the mutex (or
/// the mutex outliving the thread) must not touch freed memory when the
/// lease is returned at thread exit. Leases of destroyed pools are dropped
/// whenever the map has doubled since the last sweep, so a thread that
/// churns through short-lived mutexes keeps O(live mutexes) leases, at
/// amortized O(1) per new lease.
class ThreadSlots {
   public:
    std::uint32_t get(const std::shared_ptr<SlotPool>& pool) {
        auto it = leases_.find(pool->id());
        if (it != leases_.end()) {
            return it->second.slot;
        }
        if (leases_.size() >= sweep_at_) {
            std::erase_if(leases_, [](const auto& kv) {
                return kv.second.pool.expired();
            });
            sweep_at_ = std::max(kMinSweep, 2 * leases_.size());
        }
        const std::uint32_t s = pool->acquire();
        leases_.emplace(pool->id(), Lease{pool, s});
        return s;
    }

    ~ThreadSlots() {
        for (auto& [id, lease] : leases_) {
            if (auto pool = lease.pool.lock()) {
                pool->release(lease.slot);
            }
        }
        slot_cache().fill({});  // The slots are no longer ours.
    }

   private:
    struct Lease {
        std::weak_ptr<SlotPool> pool;
        std::uint32_t slot;
    };
    static constexpr std::size_t kMinSweep = 16;
    std::size_t sweep_at_ = kMinSweep;
    std::unordered_map<std::uint64_t, Lease> leases_;
};

inline ThreadSlots& thread_slots() {
    thread_local ThreadSlots slots;
    return slots;
}

/// This thread's slot in `pool`, leased on first use.
inline std::uint32_t thread_slot(const std::shared_ptr<SlotPool>& pool) {
    auto& cache = slot_cache();
    CachedSlot& e = cache[pool->id() % cache.size()];
    if (e.pool != pool->id()) {
        e = {pool->id(), thread_slots().get(pool)};
    }
    return e.slot;
}

/// Time left until `deadline`, zero or less once it has passed, which
/// Deadline::after turns into an immediate deadline. Computed in long
/// double, so that no time point, min() and max() included, overflows the
/// subtraction.
template <class Clock, class Duration>
std::chrono::duration<long double, typename Clock::period> time_left(
    std::chrono::time_point<Clock, Duration> deadline) {
    using Wide = std::chrono::duration<long double, typename Clock::period>;
    return Wide(deadline.time_since_epoch()) -
           Wide(Clock::now().time_since_epoch());
}

}  // namespace detail

class AfSharedMutex {
   public:
    /// `f` defaults to sqrt-balanced: ceil(sqrt(max_readers)), the
    /// benches' core::f_of(FChoice::Sqrt, max_readers).
    AfSharedMutex(std::uint32_t max_readers, std::uint32_t max_writers,
                  std::uint32_t f = 0)
        : lock_(max_readers, max_writers,
                f != 0 ? f : core::f_of(core::FChoice::Sqrt, max_readers)),
          reader_slots_(std::make_shared<detail::SlotPool>(max_readers)),
          writer_slots_(std::make_shared<detail::SlotPool>(max_writers)) {}

    AfSharedMutex(const AfSharedMutex&) = delete;
    AfSharedMutex& operator=(const AfSharedMutex&) = delete;

    /// Forwarded to the underlying AfLock (and its WL); attach before
    /// starting the workload.
    void attach_telemetry(LockTelemetry* t) { lock_.attach_telemetry(t); }

    void lock_shared() {
        lock_.lock_shared(detail::thread_slot(reader_slots_));
    }
    void unlock_shared() {
        lock_.unlock_shared(detail::thread_slot(reader_slots_));
    }
    void lock() { lock_.lock(detail::thread_slot(writer_slots_)); }
    void unlock() {
        lock_.unlock(detail::thread_slot(writer_slots_));
    }

    // std::shared_timed_mutex-style abortable acquisition; composes with
    // std::shared_lock/std::unique_lock try_to_lock and timed constructors.
    bool try_lock_shared() {
        return lock_.try_lock_shared(detail::thread_slot(reader_slots_));
    }
    bool try_lock() {
        return lock_.try_lock(detail::thread_slot(writer_slots_));
    }
    template <class Rep, class Period>
    bool try_lock_shared_for(std::chrono::duration<Rep, Period> timeout) {
        return lock_.try_lock_shared_for(
            detail::thread_slot(reader_slots_), timeout);
    }
    template <class Rep, class Period>
    bool try_lock_for(std::chrono::duration<Rep, Period> timeout) {
        return lock_.try_lock_for(detail::thread_slot(writer_slots_),
                                  timeout);
    }
    template <class Clock, class Duration>
    bool try_lock_shared_until(
        std::chrono::time_point<Clock, Duration> deadline) {
        return try_lock_shared_for(detail::time_left(deadline));
    }
    template <class Clock, class Duration>
    bool try_lock_until(std::chrono::time_point<Clock, Duration> deadline) {
        return try_lock_for(detail::time_left(deadline));
    }

    [[nodiscard]] const AfLock& underlying() const { return lock_; }

   private:
    AfLock lock_;
    std::shared_ptr<detail::SlotPool> reader_slots_;
    std::shared_ptr<detail::SlotPool> writer_slots_;
};

}  // namespace rwr::native
