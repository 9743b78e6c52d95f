// Native m-slot mutual exclusion: the Peterson arbitration tree, the
// writers' lock WL of Algorithm 1, abortable in place:
// mutex/tournament_protocol.inc compiled into inline functions. This file
// is the native executor: the atomics and their orders, parking,
// deadlines and telemetry.
//
// Slots, not threads, are the identity: callers pass their slot index, and
// one slot must never be used by two threads concurrently. This mirrors the
// paper's model where process identity is part of the algorithm.
//
// Memory ordering. Peterson needs each rival's flag store ordered before
// the other rival's flag load, a store->load (Dekker) pair. A node entry
// stores its flag relaxed and writes `victim` with exchange, a seq_cst
// RMW, and loads the rival's flag and `victim` seq_cst. Both rivals'
// victim exchanges are RMWs of one word, so the later one reads the
// earlier one's value; that read synchronizes with the earlier exchange,
// which orders the earlier thread's flag store before the later thread's
// flag load. So the later thread sees the earlier one competing and, being
// the victim, waits; the earlier thread may miss the later flag and enter,
// which is safe. On x86 the entry costs one locked RMW (the exchange)
// instead of two. The flag clears of unlock() and of an abort stay seq_cst
// stores: each is followed by a wake_all, whose waiter-count load must not
// pass the store (park.hpp). Setting a flag never satisfies a parked
// rival, so it needs no wake.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/steps.hpp"
#include "native/telemetry.hpp"

namespace rwr::native {

class TournamentMutex : private AtomicSteps {
   public:
    /// The size rule (shape_for) throws std::invalid_argument before
    /// anything is allocated.
    explicit TournamentMutex(std::uint32_t m)
        : shape_(shape_for(m)),
          nodes_(shape_.leaves > 1
                     ? std::make_unique<Node[]>(shape_.leaves - 1)
                     : nullptr) {}

    /// Attach a telemetry sink (nullptr detaches); reports under the
    /// mutex_* counters. Attach before starting the workload.
    void attach_telemetry(LockTelemetry* t) { telemetry_ = t; }

    void lock(std::uint32_t slot) { lock_until(slot, Deadline::infinite()); }

    /// Non-blocking acquisition: succeeds only if every node on the path is
    /// won without waiting. On failure all partial announcements are rolled
    /// back, so the lock state is as if the call never happened.
    bool try_lock(std::uint32_t slot) {
        return lock_until(slot, Deadline::immediate());
    }

    template <class Rep, class Period>
    bool try_lock_for(std::uint32_t slot,
                      std::chrono::duration<Rep, Period> timeout) {
        return lock_until(slot, Deadline::after(timeout));
    }

    /// Climbs the tree; gives up, rolling back, if `deadline` expires
    /// while waiting at some node. A bad slot throws
    /// std::invalid_argument.
    bool lock_until(std::uint32_t slot, Deadline deadline) {
        Attempt a{deadline,
                  TelemetryProbe::entry(telemetry_, TelemetryRole::kMutex)};
        const bool won = climb(ThisThread{}, a, slot);
        if (won) {
            a.probe.acquired();
        } else {
            a.probe.aborted();
        }
        return won;
    }

    void unlock(std::uint32_t slot) { release_below(ThisThread{}, slot, 0); }

    [[nodiscard]] std::uint32_t capacity() const { return shape_.slots; }

   private:
    // Both sides of one Peterson node must share state (that is the
    // algorithm), but adjacent tree nodes are contended by disjoint slot
    // pairs and must not share a line.
    struct alignas(64) Node {
        std::atomic<std::uint32_t> flag[2] = {0, 0};
        std::atomic<std::uint32_t> victim{0};
        ParkingSpot spot;  ///< Loser parks; flag clears and victim stores wake.
    };
    static_assert(sizeof(Node) == 64 && alignof(Node) == 64,
                  "one arbitration node per cache line");

    // ---- The executor of mutex/tournament_protocol.inc -------------------
    struct Attempt {
        Deadline& deadline;    ///< The caller's, polled by every wait.
        TelemetryProbe probe;  ///< Contended: a Peterson wait ran.
    };

    void write_victim(Caller, std::uint32_t n, std::uint32_t side) {
        nodes_[n].victim.exchange(side);
        // Our victim store may be exactly what the parked rival waits for.
        nodes_[n].spot.wake_all(telemetry_);
    }
    bool wait_turn(Caller c, Attempt& a, std::uint32_t n, std::uint32_t side) {
        if (may_enter(c, n, side)) {
            return true;
        }
        return wait_contended(nodes_[n].spot, a.deadline, a.probe, telemetry_,
                              [&] { return may_enter(c, n, side); });
    }
    void wake(std::uint32_t n) { nodes_[n].spot.wake_all(telemetry_); }

#define RWR_STEP
#define RWR_RETURN return
#include "mutex/tournament_protocol.inc"

    Shape shape_;
    std::unique_ptr<Node[]> nodes_;
    LockTelemetry* telemetry_ = nullptr;
};

}  // namespace rwr::native
