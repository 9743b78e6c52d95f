// Native (std::atomic) implementation of the paper's Algorithm 1 -- the
// A_f reader-writer lock family: core/af_protocol.inc compiled into inline
// functions, so every protocol line, abort rollback included, is the one
// the simulator explores (core/af_lock_sim.hpp); see af_protocol.inc and
// the paper's Section 4 for the protocol walkthrough. This file is the
// native executor: the atomics, parking, telemetry and misuse checks.
//
// Identity model: reader ids in [0, n), writer ids in [0, m), passed to
// every call; one id must never be used by two threads concurrently. For an
// id-less std::shared_mutex-style facade see native/shared_mutex.hpp.
//
// Guarantees (Theorem 18): Mutual Exclusion, Bounded Exit, Deadlock
// Freedom, Concurrent Entering, no reader starvation. Writers can starve
// under a continuous reader flood. RMR complexity: writers Θ(f + log m),
// readers Θ(log(n/f)) per passage in the CC model.
//
// Abortability: try_lock(_shared) and try_lock(_shared)_for let a caller
// give up on a blocked acquisition. An aborting participant rolls back
// every announcement it made (C[i]/W[i] increments, the WL climb, the WSIG
// handshake obligations), so Theorem 18's properties continue to hold for
// the survivors; see DESIGN.md §8 for the argument. Aborts are bounded:
// O(log K) steps for a reader, O(f + log m) for a writer.
//
// Misuse checks: every entry/exit verifies the caller's id is used
// consistently and throws std::logic_error on violation, before any shared
// state changes. A reader's checks cost nothing: lines 31 and 40 CAS the
// reader's own C[i] leaf from 0 to 1 and back (FArrayCounter::move), so a
// recursive lock_shared, an unlock_shared without lock_shared and
// concurrent reuse of one reader id each fail that CAS; lines 34/37 do the
// same on W[i]. The writer checks (no concurrent reuse of one writer id,
// no unlock without lock, no unlock of a WL the caller does not hold) cost
// an uncontended exchange per call.
//
// Memory ordering: every access outside telemetry is seq_cst except three
// kinds of store.
//   * The WSIG stores of lines 7-9 (<seq, ⊥>) and line 16 (<seq, WAIT>)
//     are release stores. Only the WL holder stores a WSIG word; readers
//     change it only by CAS (line 45, HelpWCS lines 50-54). A reader's CAS
//     expects <seq, ⊥> or <seq, WAIT>, with seq taken from the RSIG value
//     that line 11 or line 18 stored, read by a seq_cst load. The holder
//     makes that RSIG store after its WSIG stores, so they happen before
//     every reader CAS that can succeed on them. The only WSIG loads are
//     the holder's waits on its own words (lines 14, 21), so no store->load
//     (Dekker) pair involves WSIG, and each word's modification order,
//     which is all the CASes depend on, is unchanged.
//   * The WSEQ store of line 25 is a release store. Only WL holders read
//     WSEQ, and only after acquiring WL, whose hand-off already orders the
//     previous holder's store before the next holder's load; no reader
//     reads it, so it is in no Dekker pair either.
//   * The writer misuse record wl_holder_ is stored relaxed. Only
//     check_wl_held reads it; it has no protocol role, and a thread always
//     reads its own last store.
// What stays seq_cst: the RSIG stores (lines 11, 18, 26), each half of a
// Dekker pair with a reader's C[i] update followed by its RSIG load, and
// each followed by a wake_all whose waiter-count read must not pass the
// store (park.hpp); the f-arrays (counter.hpp), WL (mutex.hpp, apart from
// the relaxed flag store its header argues for), the writer_busy_
// exchanges, the readers' CASes and parking. The text names each store's
// order; the simulator's model is sequentially consistent and ignores it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/af_params.hpp"
#include "core/signals.hpp"
#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/steps.hpp"
#include "native/telemetry.hpp"

// The writer misuse checks are always compiled. The macro remains for code
// that prints a build's configuration.
#define RWR_AF_MISUSE_CHECKS 1

namespace rwr::native {

class AfLock : private AtomicSteps {
   public:
    /// `f` = number of reader groups = writer RMR budget; 1 <= f <= n.
    /// Reader `id` uses slot id % k of group id / k, where k = ceil(n/f).
    /// Throws std::invalid_argument, before allocating anything, on an
    /// invalid core::AfParams or a k above FArrayCounter::kMaxCapacity.
    explicit AfLock(std::uint32_t n, std::uint32_t m, std::uint32_t f)
        : params_(checked({.n = n, .m = m, .f = f})),
          k_(params_.group_size()),
          groups_(params_.num_groups()),
          wl_(m) {
        c_.reserve(groups_);
        w_.reserve(groups_);
        for (std::uint32_t i = 0; i < groups_; ++i) {
            c_.emplace_back(k_);
            w_.emplace_back(k_);
        }
        wsig_ = std::make_unique<Signal[]>(groups_);
        writer_busy_ = std::make_unique<PaddedFlag[]>(m);
    }

    /// Attach a telemetry sink (nullptr detaches). Not thread-safe against
    /// concurrent passages; attach before starting the workload. Propagates
    /// to the embedded WL so writer-lock contention shows up under the
    /// mutex_* counters. Each attachment allocates fresh abort-retry flags,
    /// so a sink counts a retry only after an abort it counted; detaching
    /// frees them.
    void attach_telemetry(LockTelemetry* t) {
        reader_retry_ = retry_flags(t, params_.n);
        writer_retry_ = retry_flags(t, params_.m);
        wl_.attach_telemetry(t);
        telemetry_ = t;
    }

    void lock_shared(std::uint32_t reader_id) {
        lock_shared_until(reader_id, Deadline::infinite());
    }

    /// Non-blocking reader acquisition: fails iff a writer is past line 18
    /// (RSIG = WAIT). Failure rolls back the C[i] increment and performs the
    /// exit-section signalling so no writer is stranded.
    bool try_lock_shared(std::uint32_t reader_id) {
        return lock_shared_until(reader_id, Deadline::immediate());
    }

    template <class Rep, class Period>
    bool try_lock_shared_for(std::uint32_t reader_id,
                             std::chrono::duration<Rep, Period> timeout) {
        return lock_shared_until(reader_id, Deadline::after(timeout));
    }

    bool lock_shared_until(std::uint32_t reader_id, Deadline deadline) {
        check_reader(reader_id);
        Attempt a{deadline,
                  TelemetryProbe::entry(telemetry_, TelemetryRole::kReader)};
        const bool entered = reader_entry_section(reader_id, a);
        finish(a.probe, entered, reader_retry_.get(), reader_id);
        return entered;
    }

    void unlock_shared(std::uint32_t reader_id) {
        check_reader(reader_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        reader_exit_section(reader_id, reader_id / k_, reader_id % k_);
        probe.released();
    }

    void lock(std::uint32_t writer_id) {
        lock_until(writer_id, Deadline::infinite());
    }

    /// Non-blocking writer acquisition: succeeds only if WL is won without
    /// waiting and no reader is present in any group. Failure rolls the
    /// protocol forward to the next passage number (the writer exit
    /// sequence), which releases any reader that parked on line 36.
    bool try_lock(std::uint32_t writer_id) {
        return lock_until(writer_id, Deadline::immediate());
    }

    template <class Rep, class Period>
    bool try_lock_for(std::uint32_t writer_id,
                      std::chrono::duration<Rep, Period> timeout) {
        return lock_until(writer_id, Deadline::after(timeout));
    }

    bool lock_until(std::uint32_t writer_id, Deadline deadline) {
        check_writer(writer_id);
        writer_acquire_guard(writer_id);
        Attempt a{deadline,
                  TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter)};
        a.probe.note_retry(writer_retry_.get(), writer_id);
        const bool entered = writer_entry_section(writer_id, a);
        if (!entered) {
            writer_release_guard(writer_id);
        }
        finish(a.probe, entered, writer_retry_.get(), writer_id);
        return entered;
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        check_wl_held(writer_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        writer_exit_section(writer_id);
        writer_release_guard(writer_id);
        probe.released();
    }

    [[nodiscard]] std::uint32_t num_readers() const { return params_.n; }
    [[nodiscard]] std::uint32_t num_writers() const { return params_.m; }
    [[nodiscard]] std::uint32_t f() const { return params_.f; }
    [[nodiscard]] std::uint32_t group_size() const { return k_; }

   private:
    struct alignas(64) Signal {
        std::atomic<std::uint64_t> word{0};  // pack_sig(0, WsOp::Bot).
        /// The writer parks here when the group's handshake is pending;
        /// sharing the signal's line is intentional -- spot and word are
        /// touched by the same handshake parties, and a per-Signal futex
        /// word is what makes wakeups targeted (no herd across groups).
        ParkingSpot spot;
    };
    static_assert(sizeof(Signal) == 64 && alignof(Signal) == 64,
                  "one WSIG per cache line: adjacent groups' signals are "
                  "written by the writer and CASed by different readers");

    /// One-byte guard flag padded to a full line: the writer busy flags are
    /// exchanged on every acquire/release by different threads, so packing
    /// 64 of them per line would bounce that line across every core.
    struct alignas(64) PaddedFlag {
        std::atomic<std::uint8_t> v{0};
    };
    static_assert(sizeof(PaddedFlag) == 64 && alignof(PaddedFlag) == 64,
                  "misuse-check guards must not share cache lines");

    static core::AfParams checked(const core::AfParams& params) {
        if (params.validated().group_size() > FArrayCounter::kMaxCapacity) {
            throw std::invalid_argument(
                "AfLock: group size ceil(n/f) above "
                "FArrayCounter::kMaxCapacity");
        }
        return params;
    }

    void check_reader(std::uint32_t id) const {
        if (id >= params_.n) {
            throw std::invalid_argument("AfLock: reader id out of range");
        }
    }
    void check_writer(std::uint32_t id) const {
        if (id >= params_.m) {
            throw std::invalid_argument("AfLock: writer id out of range");
        }
    }

    // ---- The executor of core/af_protocol.inc ----------------------------
    using Caller = std::uint32_t;  ///< The reader or writer id.
    struct Attempt {
        Deadline& deadline;    ///< The caller's, polled by every wait.
        TelemetryProbe probe;  ///< Contended: a line-14, 21 or 36 wait ran.
    };
    static void finish(TelemetryProbe& probe, bool entered,
                       TelemetryFlag* retry, std::uint32_t id) {
        if (entered) {
            probe.acquired();
        } else {
            probe.aborted(retry, id);
        }
    }

    static std::uint32_t index(Caller id) { return id; }
    std::atomic<Word>& wsig(std::uint32_t g) { return wsig_[g].word; }
    /// A reader's own leaf is 1 from line 31 to line 40 (C[i]) and from
    /// line 34 to line 37 (W[i]), and 0 otherwise, so the f-array move that
    /// the protocol line makes anyway is also the misuse check: it fails,
    /// writing nothing, exactly when the id is misused.
    static void move_leaf(Caller, FArrayCounter& counter, std::uint32_t slot,
                          std::int32_t from, std::int32_t to,
                          const char* misuse) {
        if (!counter.move(slot, from, to)) {
            throw std::logic_error(misuse);
        }
    }
    static std::int64_t read_root(Caller, const FArrayCounter& counter) {
        return counter.read();
    }
    /// Line 51 compares C[i] and W[i], which must be read at one instant:
    /// two plain reads can fake equality while a reader is still in the CS,
    /// when a reader arrives (C, then W) or aborts (W, then C) between
    /// them. equals_now() answers "not equal" when C[i] changed around the
    /// read of W[i]. That costs no liveness: while RSIG is WAIT, every
    /// change of C[i] or W[i] is followed by its reader's own call here,
    /// and the call after the last change sees both counts settled.
    bool counts_equal(Caller, std::uint32_t g) const {
        return c_[g].equals_now(w_[g]);
    }
    /// The waits of lines 14 and 21: spin, then park on the signal's spot,
    /// until done or the attempt's deadline.
    bool wait_wsig(Caller, Attempt& a, std::uint32_t g, Word want) {
        Signal& s = wsig_[g];
        return wait_contended(s.spot, a.deadline, a.probe, telemetry_,
                              [&] { return s.word.load() == want; });
    }
    /// Line 36, parked on rsig_spot_ (every RSIG store wakes it).
    bool wait_rsig(Caller, Attempt& a, Word sig) {
        return wait_contended(rsig_spot_, a.deadline, a.probe, telemetry_,
                              [&] { return rsig_.load() != sig; });
    }
    static bool may_wait(const Attempt& a) {
        return !a.deadline.is_immediate();
    }
    bool wl_enter(Caller id, Attempt& a) {
        return wl_.lock_until(id, a.deadline);
    }
    void wl_exit(Caller id) { wl_.unlock(id); }
    void wake_rsig() { rsig_spot_.wake_all(telemetry_); }
    void wake_wsig(std::uint32_t g) { wsig_[g].spot.wake_all(telemetry_); }
    static void publish_gates(Caller, Word) {}
    static constexpr bool no_preentry() { return false; }
    static constexpr bool no_exit_help() { return false; }
    void note_reader_retry(Caller id, Attempt& a) {
        a.probe.note_retry(reader_retry_.get(), id);
    }

#define RWR_STEP
#define RWR_RETURN return
#include "core/af_protocol.inc"

    // Writer checks.
    void writer_acquire_guard(std::uint32_t id) {
        if (writer_busy_[id].v.exchange(1) != 0) {
            throw std::logic_error(
                "AfLock: writer id already in an acquisition or passage "
                "(concurrent id reuse or recursive lock)");
        }
    }
    void writer_release_guard(std::uint32_t id) {
        if (writer_busy_[id].v.exchange(0) == 0) {
            throw std::logic_error(
                "AfLock: unlock without matching lock");
        }
    }
    void note_wl_held(std::uint32_t id) {
        wl_holder_.store(id, std::memory_order_relaxed);
    }
    void note_wl_released() {
        wl_holder_.store(kNoHolder, std::memory_order_relaxed);
    }
    void check_wl_held(std::uint32_t id) const {
        if (wl_holder_.load() != id) {
            throw std::logic_error(
                "AfLock: unlock by a writer that does not hold WL");
        }
    }

    core::AfParams params_;
    std::uint32_t k_, groups_;
    // The counters are read-only handles after construction; their nodes
    // are heap-allocated with one alignas(64) node per line (counter.hpp).
    std::vector<FArrayCounter> c_;
    std::vector<FArrayCounter> w_;
    TournamentMutex wl_;
    std::unique_ptr<Signal[]> wsig_;
    alignas(64) std::atomic<std::uint64_t> wseq_{0};
    alignas(64) std::atomic<std::uint64_t> rsig_{0};  // pack_sig(0, Nop).
    /// Readers parked at line 36 wait here; every rsig_ store wakes it.
    alignas(64) ParkingSpot rsig_spot_;
    LockTelemetry* telemetry_ = nullptr;
    /// Per-id "last attempt aborted" flags behind the reader and writer
    /// abort-retry counters (TelemetryProbe::note_retry); null while no
    /// sink is attached.
    std::unique_ptr<TelemetryFlag[]> reader_retry_;
    std::unique_ptr<TelemetryFlag[]> writer_retry_;
    static constexpr std::uint32_t kNoHolder = 0xffffffffu;
    std::unique_ptr<PaddedFlag[]> writer_busy_;
    alignas(64) mutable std::atomic<std::uint32_t> wl_holder_{kNoHolder};
};

}  // namespace rwr::native
