// Scalable waiting: futex parking for the native locks' terminal wait state.
//
// The spin/yield stages of Backoff (spin.hpp) are right for short waits --
// the paper's algorithms are local-spin, and a hand-off normally lands
// within microseconds. But the old *terminal* stage (timed sleeps capped at
// 1ms) has two costs the algorithms never pay in the model: a long wait
// still wakes up ~1000x/s per blocked thread (CPU burned on oversubscribed
// hosts), and a timed acquisition can overshoot its deadline by up to a
// full sleep slice. ParkingSpot replaces that stage with a kernel wait:
//
//   * Linux: FUTEX_WAIT_BITSET on a per-spot 32-bit word, with an
//     *absolute* CLOCK_MONOTONIC timeout (std::chrono::steady_clock is
//     CLOCK_MONOTONIC on Linux), so a timed wait returns at the deadline,
//     not a sleep-slice past it. Wakes are targeted: one futex word per
//     awaited location (per WSIG group signal, per tournament node, per
//     MCS queue node), so a hand-off wakes exactly the interested waiters
//     instead of a thundering herd.
//   * Portable fallback (RWR_HAS_FUTEX == 0): std::atomic::wait/notify for
//     untimed waits, and deadline-clamped bounded sleeps for timed ones --
//     strictly better than the old sleep stage (never sleeps past the
//     deadline), just not syscall-precise. Force it on any platform with
//     -DRWR_FORCE_PORTABLE_PARK=1 (the CI matrix builds it so the path
//     cannot rot).
//
// Protocol (an eventcount): each spot holds an epoch word and a waiter
// count. A waiter registers (waiters+1), loads the epoch, re-checks its
// predicate, and only then waits for the epoch to move. A waker updates
// lock state first, then -- only if waiters are registered -- bumps the
// epoch and issues the wake. All accesses are seq_cst, so either the waker
// observes the registration (and bumps the epoch, which aborts the wait),
// or the waiter's predicate re-check observes the state update (and never
// parks). Lost-wakeup freedom needs no cooperation from the lock beyond
// "state update precedes wake_all()", which every call site satisfies by
// construction. Spurious wakes (unrelated epoch bumps, EINTR) are absorbed
// by the caller's re-check loop.
//
// Parking can be disabled at runtime (RWR_PARK=0 in the environment): the
// wait loops then fall back to Backoff's sleep stage, which is exactly the
// pre-parking behaviour. The benches use this to measure parked vs
// spinning CPU time on identical binaries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "native/spin.hpp"
#include "native/telemetry.hpp"

#if defined(__linux__) && !defined(RWR_FORCE_PORTABLE_PARK)
#define RWR_HAS_FUTEX 1
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#else
#define RWR_HAS_FUTEX 0
#endif

namespace rwr::native {

/// Runtime kill switch: RWR_PARK=0 in the environment keeps waiters in the
/// spin/yield stages (no kernel waits). Read once, first use.
inline bool parking_enabled() {
    static const bool enabled = [] {
        const char* v = std::getenv("RWR_PARK");
        return v == nullptr || v[0] != '0';
    }();
    return enabled;
}

enum class ParkResult {
    kSatisfied,  ///< Predicate held before any kernel wait happened.
    kUnparked,   ///< Woken (or epoch moved / spurious); re-check and retry.
    kTimedOut,   ///< The absolute deadline expired while parked.
};

/// One waitable location: an epoch word (the futex word) plus a waiter
/// count that lets the wake side skip the syscall -- and even the epoch
/// bump -- when nobody is parked. 8 bytes; embed one next to each awaited
/// signal/node (sharing its cache line is fine: spot and signal are touched
/// by the same handshake parties).
class ParkingSpot {
   public:
    /// Registers, re-checks `satisfied`, and parks until the epoch moves or
    /// `deadline` (absolute) expires. Telemetry: one kFutexWait per kernel
    /// wait actually entered, one kParkAbort per deadline expiry while
    /// parked. `t` may be null.
    template <class Pred>
    ParkResult park(Deadline& deadline, LockTelemetry* t, Pred&& satisfied) {
        waiters_.fetch_add(1);                    // seq_cst: publish first,
        const std::uint32_t e = epoch_.load();    // then snapshot the epoch,
        if (satisfied()) {                        // then re-check.
            waiters_.fetch_sub(1);
            return ParkResult::kSatisfied;
        }
        if (t != nullptr) {
            t->count(TelemetryCounter::kFutexWait);
        }
        const bool timed_out = wait_for_epoch_change(e, deadline);
        waiters_.fetch_sub(1);
        if (timed_out) {
            if (t != nullptr) {
                t->count(TelemetryCounter::kParkAbort);
            }
            return ParkResult::kTimedOut;
        }
        return ParkResult::kUnparked;
    }

    /// Wakes every parked waiter. Call *after* the state change the waiters
    /// are waiting for; costs one load when nobody is parked.
    void wake_all(LockTelemetry* t) {
        if (waiters_.load() == 0) {
            return;
        }
        epoch_.fetch_add(1);
        if (t != nullptr) {
            t->count(TelemetryCounter::kFutexWake);
        }
#if RWR_HAS_FUTEX
        syscall(SYS_futex, word(), FUTEX_WAKE | FUTEX_PRIVATE_FLAG, INT_MAX,
                nullptr, nullptr, 0);
#else
        epoch_.notify_all();
#endif
    }

    [[nodiscard]] std::uint32_t waiters() const { return waiters_.load(); }

   private:
    /// Returns true iff the deadline expired before the epoch moved.
    bool wait_for_epoch_change(std::uint32_t expected, Deadline& deadline) {
        if (deadline.is_immediate()) {
            return true;
        }
#if RWR_HAS_FUTEX
        struct timespec ts;
        struct timespec* tsp = nullptr;
        if (const auto when = deadline.when()) {
            const auto d = when->time_since_epoch();
            const auto secs =
                std::chrono::duration_cast<std::chrono::seconds>(d);
            ts.tv_sec = static_cast<time_t>(secs.count());
            ts.tv_nsec = static_cast<long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(d - secs)
                    .count());
            tsp = &ts;
        }
        // FUTEX_WAIT_BITSET (unlike plain FUTEX_WAIT) takes the timeout as
        // an *absolute* CLOCK_MONOTONIC instant -- exactly steady_clock's
        // epoch on Linux -- so repark loops cannot accumulate overshoot.
        const long rc =
            syscall(SYS_futex, word(), FUTEX_WAIT_BITSET | FUTEX_PRIVATE_FLAG,
                    expected, tsp, nullptr, FUTEX_BITSET_MATCH_ANY);
        return rc == -1 && errno == ETIMEDOUT;
#else
        if (deadline.is_infinite()) {
            epoch_.wait(expected);  // C++20 atomic wait; no timeout needed.
            return false;
        }
        // Timed portable wait: bounded sleeps clamped to the remaining
        // time, so the return is never later than deadline + one clamp
        // granularity (vs. the old Backoff overshoot of a full slice).
        const auto when = *deadline.when();
        constexpr auto kSlice = std::chrono::microseconds(200);
        while (epoch_.load() == expected) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= when) {
                return epoch_.load() == expected;
            }
            const auto remain = when - now;
            std::this_thread::sleep_for(
                remain < kSlice
                    ? std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(remain)
                    : std::chrono::steady_clock::duration(kSlice));
        }
        return false;
#endif
    }

#if RWR_HAS_FUTEX
    std::uint32_t* word() {
        static_assert(sizeof(std::atomic<std::uint32_t>) == 4 &&
                          std::atomic<std::uint32_t>::is_always_lock_free,
                      "futex needs a plain 32-bit word");
        return reinterpret_cast<std::uint32_t*>(&epoch_);
    }
#endif

    std::atomic<std::uint32_t> epoch_{0};
    std::atomic<std::uint32_t> waiters_{0};
};
static_assert(sizeof(ParkingSpot) == 8, "spot embeds next to its signal");

/// With parking enabled, a waiter parks after this many yield-stage pauses
/// instead of grinding through the full yield budget (which is tuned for
/// spin-only waiting and, on an oversubscribed host, burns the whole hold
/// time in sched_yield before the first park -- measured in E13).
/// Full spin stage + this burst still precedes the first kernel wait, so
/// sub-microsecond hand-offs never pay a syscall.
inline constexpr std::uint32_t kParkAfterYields = 16;

/// The standard contended wait: spin briefly per `backoff`, then park on
/// `spot` as the terminal state (when parking is enabled; otherwise run
/// the full spin/yield/sleep ladder). Returns true when `satisfied` held,
/// false when `deadline` expired. The caller owns `backoff` so it can
/// reset() across hand-offs and report the reached stage to telemetry,
/// exactly as before.
///
/// Call sites that need a "did we wait at all" bit should check the
/// predicate once before calling (this function re-checks first thing, so
/// the extra check costs one load on the contended path only).
template <class Pred>
bool wait_until(ParkingSpot& spot, Deadline& deadline, LockTelemetry* t,
                Backoff& backoff, Pred&& satisfied) {
    std::uint32_t yield_pauses = 0;
    for (;;) {
        if (satisfied()) {
            return true;
        }
        if (deadline.poll()) {
            return false;
        }
        const bool terminal =
            backoff.stage() == Backoff::Stage::Sleep ||
            (backoff.stage() == Backoff::Stage::Yield &&
             yield_pauses >= kParkAfterYields);
        if (parking_enabled() && terminal) {
            switch (spot.park(deadline, t, satisfied)) {
                case ParkResult::kSatisfied:
                    return true;
                case ParkResult::kUnparked:
                    break;  // Re-check and, if needed, park again.
                case ParkResult::kTimedOut:
                    // Absolute timeout already fired inside the kernel; one
                    // final predicate check, then report expiry without
                    // waiting for poll()'s stride to notice.
                    return satisfied();
            }
        } else {
            if (backoff.stage() == Backoff::Stage::Yield) {
                ++yield_pauses;
            }
            backoff.pause();
        }
    }
}

}  // namespace rwr::native
