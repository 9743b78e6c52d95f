// Native m-slot mutual exclusion: the Peterson arbitration tree (read/write
// only, O(log m) RMRs, starvation-free -- the writers' lock WL of
// Algorithm 1).
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
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/telemetry.hpp"

namespace rwr::native {

class TournamentMutex {
   public:
    explicit TournamentMutex(std::uint32_t m)
        : m_(m),
          num_leaves_(m <= 1 ? 1 : std::bit_ceil(m)),
          nodes_(num_leaves_ > 1 ? std::make_unique<Node[]>(num_leaves_ - 1)
                                 : nullptr) {
        if (m == 0) {
            throw std::invalid_argument("TournamentMutex: m must be >= 1");
        }
        RWR_TELEM(retry_ = std::make_unique<TelemetryFlag[]>(m_);)
    }

    /// Attach a telemetry sink (nullptr detaches); reports under the
    /// mutex_* counters. Attach before starting the workload. Compiled to
    /// a no-op when RWR_TELEMETRY=0.
    void attach_telemetry(LockTelemetry* t) {
        RWR_TELEM(telemetry_ = t;)
        (void)t;
    }

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

    /// Climbs the arbitration tree; aborts (and rolls back) if `deadline`
    /// expires while waiting at some node. Aborting at a node is the
    /// classic abortable-Peterson retreat: clear our competing flag (which
    /// unblocks a rival spinning on it), then release the already-won nodes
    /// below in the same top-down order unlock() uses.
    bool lock_until(std::uint32_t slot, Deadline deadline) {
        check_slot(slot);
        // The abort stopwatch arms on kAbortLatency's own sampling
        // sequence; it only ever records on the abort path below, so a
        // successful climb costs at most the sampling-decision branch.
        RWR_TELEM(TelemetryStopwatch sw(telemetry_,
                                        TelemetryHisto::kAbortLatency);
                  if (telemetry_ && retry_[slot].v.exchange(
                                        0, std::memory_order_relaxed) != 0) {
                      telemetry_->count(TelemetryCounter::kMutexAbortRetry);
                  })
        std::uint32_t won[32];  // Node indices won so far, bottom-up.
        std::uint32_t depth = 0;
        std::uint32_t pos = (num_leaves_ - 1) + slot;
        bool waited = false;
        while (pos != 0) {
            const std::uint32_t parent = (pos - 1) / 2;
            const int side = pos == 2 * parent + 1 ? 0 : 1;
            if (!node_lock(parent, side, deadline, waited)) {
                for (std::uint32_t i = depth; i-- > 0;) {
                    const std::uint32_t child = won[i];
                    const std::uint32_t p = (child - 1) / 2;
                    const int s = child == 2 * p + 1 ? 0 : 1;
                    nodes_[p].flag[s].store(0);
                    nodes_[p].spot.wake_all(RWR_TELEM_PTR(telemetry_));
                }
                RWR_TELEM(if (telemetry_) {
                    telemetry_->count(TelemetryCounter::kMutexAbort);
                    retry_[slot].v.store(1, std::memory_order_relaxed);
                    sw.stop();
                })
                return false;
            }
            won[depth++] = pos;
            pos = parent;
        }
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kMutexAcquire);
            if (waited) {
                telemetry_->count(TelemetryCounter::kMutexContended);
            }
        })
        (void)waited;
        return true;
    }

    void unlock(std::uint32_t slot) {
        check_slot(slot);
        // Release top-down (reverse of acquisition).
        std::uint32_t path[32];
        std::uint32_t depth = 0;
        std::uint32_t pos = (num_leaves_ - 1) + slot;
        while (pos != 0) {
            path[depth++] = pos;
            pos = (pos - 1) / 2;
        }
        for (std::uint32_t i = depth; i-- > 0;) {
            const std::uint32_t child = path[i];
            const std::uint32_t parent = (child - 1) / 2;
            const int side = child == 2 * parent + 1 ? 0 : 1;
            nodes_[parent].flag[side].store(0);
            nodes_[parent].spot.wake_all(RWR_TELEM_PTR(telemetry_));
        }
    }

    [[nodiscard]] std::uint32_t capacity() const { return m_; }

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

    bool node_lock(std::uint32_t n, int side, Deadline& deadline,
                   bool& waited) {
        Node& node = nodes_[n];
        // Relaxed: the victim exchange orders it (header comment).
        node.flag[side].store(1, std::memory_order_relaxed);
        node.victim.exchange(static_cast<std::uint32_t>(side));
        // Our victim store may be exactly what the parked rival waits for.
        node.spot.wake_all(RWR_TELEM_PTR(telemetry_));
        // Peterson: wait while the rival competes and we are the victim.
        const auto may_enter = [&] {
            return node.flag[1 - side].load() == 0 ||
                   node.victim.load() != static_cast<std::uint32_t>(side);
        };
        if (may_enter()) {
            return true;
        }
        waited = true;
        Backoff backoff;
        const bool ok = wait_until(node.spot, deadline,
                                   RWR_TELEM_PTR(telemetry_), backoff,
                                   may_enter);
        RWR_TELEM(if (telemetry_) telemetry_->note_backoff(backoff);)
        if (!ok) {
            node.flag[side].store(0);
            // The rival may be parked on our flag clearing.
            node.spot.wake_all(RWR_TELEM_PTR(telemetry_));
            return false;
        }
        return true;
    }

    void check_slot(std::uint32_t slot) const {
        if (slot >= m_) {
            throw std::invalid_argument("TournamentMutex: bad slot");
        }
    }

    std::uint32_t m_;
    std::uint32_t num_leaves_;
    std::unique_ptr<Node[]> nodes_;
#if RWR_TELEMETRY
    LockTelemetry* telemetry_ = nullptr;
    /// Per-slot "last attempt aborted" flags behind mutex_abort_retries
    /// (see af_lock.hpp for the exact-count contract).
    std::unique_ptr<TelemetryFlag[]> retry_;
#endif
};

}  // namespace rwr::native
