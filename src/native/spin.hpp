// Spin-wait helpers for native (std::atomic) lock implementations.
//
// All native locks in this library busy-wait exactly where the paper's
// algorithms do (they are local-spin algorithms: each await loop re-reads a
// variable that changes O(1) times per passage). On real multiprocessors the
// spin body should pause; on oversubscribed machines it must yield, or a
// spinner can monopolize the core the lock holder needs; and on a CI runner
// with fewer cores than threads a long wait must eventually sleep, or every
// blocked thread burns a full core for the whole wait.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rwr::native {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

/// Escalating backoff: pause a few times, then yield to the OS scheduler,
/// then (after sustained yielding) sleep in bounded, escalating slices. The
/// sleep stage caps the cost of a long wait on oversubscribed machines at
/// one wakeup per kSleepCap instead of a busy core, while the earlier
/// stages keep the uncontended hand-off latency unchanged.
///
/// Lifecycle contract for call sites: one Backoff instance describes ONE
/// wait for ONE hand-off. A loop that observes the awaited hand-off and
/// then waits again (a lost CAS race, a second gate in the same passage)
/// must reset() -- otherwise a thread that escalated to the sleep stage
/// once starts every subsequent wait with kSleepCap-sized naps and a
/// microseconds-long hand-off turns into milliseconds.
class Backoff {
   public:
    /// Escalation stage the next pause() will execute.
    enum class Stage { Spin, Yield, Sleep };

    void pause() {
        if (spins_ < kSpinLimit) {
            ++spins_;
            cpu_relax();
        } else if (spins_ < kSpinLimit + kYieldLimit) {
            ++spins_;
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(sleep_);
            // Escalate but never past the cap: doubling *before* clamping
            // used to overshoot to 2*kSleepCap-epsilon slices.
            sleep_ = std::min(sleep_ * 2, kSleepCap);
        }
    }

    void reset() {
        spins_ = 0;
        sleep_ = kSleepStart;
    }

    [[nodiscard]] Stage stage() const {
        if (spins_ < kSpinLimit) {
            return Stage::Spin;
        }
        if (spins_ < kSpinLimit + kYieldLimit) {
            return Stage::Yield;
        }
        return Stage::Sleep;
    }

    /// Next sleep slice (only meaningful in Stage::Sleep); bounded by
    /// sleep_cap() at all times.
    [[nodiscard]] std::chrono::microseconds sleep_slice() const {
        return sleep_;
    }

    static constexpr std::chrono::microseconds sleep_cap() {
        return kSleepCap;
    }
    static constexpr int spin_limit() { return kSpinLimit; }
    static constexpr int yield_limit() { return kYieldLimit; }

   private:
    static constexpr int kSpinLimit = 64;
    static constexpr int kYieldLimit = 256;
    static constexpr std::chrono::microseconds kSleepStart{50};
    static constexpr std::chrono::microseconds kSleepCap{1000};
    int spins_ = 0;
    std::chrono::microseconds sleep_ = kSleepStart;
};

/// Deadline for abortable/timed acquisition paths. Three flavours:
///   * infinite()  -- never expires (blocking acquisition),
///   * immediate() -- already expired (pure try_* paths),
///   * after(d) / at(tp) -- expires at a steady_clock instant.
/// poll() amortizes clock reads: only every kStride calls does it actually
/// read the clock, so hot spin loops can poll unconditionally.
class Deadline {
   public:
    static Deadline infinite() { return Deadline{}; }
    static Deadline immediate() {
        return Deadline{std::chrono::steady_clock::time_point::min()};
    }
    static Deadline at(std::chrono::steady_clock::time_point tp) {
        return Deadline{tp};
    }
    /// A deadline past the clock's range never comes, so it is infinite.
    /// That is decided in long double, where neither `d` nor the clock's
    /// remaining range can overflow (hours::max() overflows int64 ns).
    template <class Rep, class Period>
    static Deadline after(std::chrono::duration<Rep, Period> d) {
        using Clock = std::chrono::steady_clock;
        using Wide = std::chrono::duration<long double, Clock::period>;
        if (d <= d.zero()) {
            return immediate();
        }
        const Clock::time_point now = Clock::now();
        if (Wide(d) >= Wide(Clock::time_point::max() - now)) {
            return infinite();
        }
        return Deadline{now + std::chrono::duration_cast<Clock::duration>(d)};
    }

    [[nodiscard]] bool is_infinite() const { return !when_.has_value(); }
    [[nodiscard]] bool is_immediate() const {
        return when_.has_value() &&
               *when_ == std::chrono::steady_clock::time_point::min();
    }

    /// The absolute expiry instant; nullopt for infinite deadlines. The
    /// parking layer hands this to FUTEX_WAIT_BITSET so kernel waits end
    /// *at* the deadline instead of a sleep slice past it.
    [[nodiscard]] std::optional<std::chrono::steady_clock::time_point> when()
        const {
        return when_;
    }

    /// True once the deadline has passed. Reads the clock at most every
    /// kStride calls; infinite and immediate deadlines never touch it.
    /// Expiry latches: once any clock read has observed the deadline
    /// passed, every subsequent poll() returns true immediately -- the
    /// stride only amortizes reads *before* expiry is known.
    [[nodiscard]] bool poll() {
        if (!when_.has_value()) {
            return false;
        }
        if (expired_ || is_immediate()) {
            return true;
        }
        if (++calls_ % kStride != 1) {
            return false;
        }
        expired_ = std::chrono::steady_clock::now() >= *when_;
        return expired_;
    }

   private:
    Deadline() = default;
    explicit Deadline(std::chrono::steady_clock::time_point tp) : when_(tp) {}

    static constexpr std::uint32_t kStride = 8;
    std::optional<std::chrono::steady_clock::time_point> when_;
    std::uint32_t calls_ = 0;
    bool expired_ = false;
};

}  // namespace rwr::native
