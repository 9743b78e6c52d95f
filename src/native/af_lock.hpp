// Native (std::atomic) implementation of the paper's Algorithm 1 -- the
// A_f reader-writer lock family. Mirrors core/af_lock_sim.cpp line for
// line; see that file and the paper's Section 4 for the protocol
// walkthrough.
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
// Misuse checks: unless compiled with RWR_AF_MISUSE_CHECKS=0, every
// entry/exit verifies the caller's id is used consistently (no unlock
// without lock, no double release driving C[i] negative, no unlock of a WL
// the caller does not hold, no concurrent reuse of one id) and throws
// std::logic_error on violation. The checks are one uncontended atomic
// exchange per call -- negligible next to the f-array tree walk -- but can
// be stripped for benchmark purity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/telemetry.hpp"

#ifndef RWR_AF_MISUSE_CHECKS
#define RWR_AF_MISUSE_CHECKS 1
#endif

namespace rwr::native {

class AfLock {
   public:
    /// `f` = number of reader groups = writer RMR budget; 1 <= f <= n.
    /// Reader `id` uses slot id % k of group id / k, where k = ceil(n/f).
    explicit AfLock(std::uint32_t n, std::uint32_t m, std::uint32_t f)
        : n_(n), m_(m), f_(validated_f(n, m, f)), k_((n + f_ - 1) / f_),
          wl_(m) {
        const std::uint32_t groups = (n + k_ - 1) / k_;
        for (std::uint32_t i = 0; i < groups; ++i) {
            c_.push_back(std::make_unique<FArrayCounter>(k_));
            w_.push_back(std::make_unique<FArrayCounter>(k_));
        }
        wsig_ = std::make_unique<Signal[]>(groups);
        groups_ = groups;
        RWR_TELEM(reader_retry_ = std::make_unique<TelemetryFlag[]>(n_);
                  writer_retry_ = std::make_unique<TelemetryFlag[]>(m_);)
#if RWR_AF_MISUSE_CHECKS
        reader_busy_ = std::make_unique<PaddedFlag[]>(n_);
        writer_busy_ = std::make_unique<PaddedFlag[]>(m_);
#endif
    }

    /// Attach a telemetry sink (nullptr detaches). Not thread-safe against
    /// concurrent passages; attach before starting the workload. Propagates
    /// to the embedded WL so writer-lock contention shows up under the
    /// mutex_* counters. Compiled to a no-op when RWR_TELEMETRY=0.
    void attach_telemetry(LockTelemetry* t) {
        RWR_TELEM(telemetry_ = t; wl_.attach_telemetry(t);)
        (void)t;
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
        reader_acquire_guard(reader_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kReaderEntry);
                  if (telemetry_ && reader_retry_[reader_id].v.exchange(
                                        0, std::memory_order_relaxed) != 0) {
                      telemetry_->count(TelemetryCounter::kReaderAbortRetry);
                  })
        const std::uint32_t g = reader_id / k_;
        const std::uint32_t slot = reader_id % k_;

        c_[g]->add(slot, +1);                       // Line 31.
        const std::uint64_t sig = rsig_.load();     // Line 32.
        if (rs_op(sig) != kRsWait) {                // Line 33.
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kReaderAcquire);
                sw.stop();
            })
            return true;
        }
        const std::uint64_t seq = sig_seq(sig);
        if (!deadline.is_immediate()) {
            w_[g]->add(slot, +1);                   // Line 34.
            help_wcs(g, seq);                       // Line 35.
            Backoff backoff;
            const bool acquired =                   // Line 36 (parked).
                wait_until(rsig_spot_, deadline, RWR_TELEM_PTR(telemetry_),
                           backoff, [&] { return rsig_.load() != sig; });
            w_[g]->add(slot, -1);                   // Line 37.
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kReaderContended);
                telemetry_->note_backoff(backoff);
            })
            if (acquired) {
                RWR_TELEM(if (telemetry_) {
                    telemetry_->count(TelemetryCounter::kReaderAcquire);
                    sw.stop();
                })
                return true;
            }
        }
        // Abort: after the W[i] rollback above, undoing the C[i] increment
        // is exactly the exit section (lines 40-48) -- including the
        // handshake duties, so a writer waiting on this group still gets
        // its PROCEED/CS signal from us or from a remaining reader.
        shared_exit_section(g, slot);
        reader_release_guard(reader_id);
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kReaderAbort);
            reader_retry_[reader_id].v.store(1, std::memory_order_relaxed);
            sw.stop_into(TelemetryHisto::kAbortLatency);
        })
        return false;
    }

    void unlock_shared(std::uint32_t reader_id) {
        check_reader(reader_id);
        reader_release_guard(reader_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kReaderExit);)
        shared_exit_section(reader_id / k_, reader_id % k_);
        RWR_TELEM(sw.stop();)
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
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kWriterEntry);
                  bool contended = false;
                  if (telemetry_ && writer_retry_[writer_id].v.exchange(
                                        0, std::memory_order_relaxed) != 0) {
                      telemetry_->count(TelemetryCounter::kWriterAbortRetry);
                  })
        if (!wl_.lock_until(writer_id, deadline)) {  // Line 6.
            writer_release_guard(writer_id);
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kWriterAbort);
                writer_retry_[writer_id].v.store(1, std::memory_order_relaxed);
                sw.stop_into(TelemetryHisto::kAbortLatency);
            })
            return false;
        }
        const std::uint64_t seq = wseq_.load();  // Stable: we hold WL.
        note_wl_held(writer_id);

        for (std::uint32_t i = 0; i < groups_; ++i) {  // Lines 7-9.
            wsig_[i].word.store(pack(seq, kWsBot));
        }
        rsig_.store(pack(seq, kRsPreEntry));  // Line 11.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));

        for (std::uint32_t i = 0; i < groups_; ++i) {  // Lines 12-17.
            if (c_[i]->read() > 0) {                   // Line 13.
                Backoff backoff;
                RWR_TELEM(contended = true;)
                const bool ok = wait_until(       // Line 14 (parked).
                    wsig_[i].spot, deadline, RWR_TELEM_PTR(telemetry_),
                    backoff, [&] {
                        return wsig_[i].word.load() == pack(seq, kWsProceed);
                    });
                RWR_TELEM(if (telemetry_) telemetry_->note_backoff(backoff);)
                if (!ok) {
                    RWR_TELEM(if (telemetry_) {
                        telemetry_->count(TelemetryCounter::kWriterAbort);
                        writer_retry_[writer_id].v.store(
                            1, std::memory_order_relaxed);
                        sw.stop_into(TelemetryHisto::kAbortLatency);
                    })
                    abort_writer_entry(writer_id, seq);
                    return false;
                }
            }
            wsig_[i].word.store(pack(seq, kWsWait));  // Line 16.
        }

        rsig_.store(pack(seq, kRsWait));  // Line 18.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));

        for (std::uint32_t i = 0; i < groups_; ++i) {  // Lines 19-23.
            if (c_[i]->read() != 0) {                  // Line 20.
                Backoff backoff;
                RWR_TELEM(contended = true;)
                const bool ok = wait_until(       // Line 21 (parked).
                    wsig_[i].spot, deadline, RWR_TELEM_PTR(telemetry_),
                    backoff, [&] {
                        return wsig_[i].word.load() == pack(seq, kWsCs);
                    });
                RWR_TELEM(if (telemetry_) telemetry_->note_backoff(backoff);)
                if (!ok) {
                    RWR_TELEM(if (telemetry_) {
                        telemetry_->count(TelemetryCounter::kWriterAbort);
                        writer_retry_[writer_id].v.store(
                            1, std::memory_order_relaxed);
                        sw.stop_into(TelemetryHisto::kAbortLatency);
                    })
                    abort_writer_entry(writer_id, seq);
                    return false;
                }
            }
        }
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kWriterAcquire);
            if (contended) {
                telemetry_->count(TelemetryCounter::kWriterContended);
            }
            sw.stop();
        })
        return true;
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        check_wl_held(writer_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kWriterExit);)
        const std::uint64_t seq = wseq_.load();
        writer_exit_section(writer_id, seq);
        writer_release_guard(writer_id);
        RWR_TELEM(sw.stop();)
    }

    [[nodiscard]] std::uint32_t num_readers() const { return n_; }
    [[nodiscard]] std::uint32_t num_writers() const { return m_; }
    [[nodiscard]] std::uint32_t f() const { return f_; }
    [[nodiscard]] std::uint32_t group_size() const { return k_; }

   private:
    struct alignas(64) Signal {
        std::atomic<std::uint64_t> word{0};  // pack(0, kWsBot).
        /// The writer parks here when the group's handshake is pending;
        /// sharing the signal's line is intentional -- spot and word are
        /// touched by the same handshake parties, and a per-Signal futex
        /// word is what makes wakeups targeted (no herd across groups).
        ParkingSpot spot;
    };
    static_assert(sizeof(Signal) == 64 && alignof(Signal) == 64,
                  "one WSIG per cache line: adjacent groups' signals are "
                  "written by the writer and CASed by different readers");

    /// One-byte guard flag padded to a full line: the busy flags are
    /// exchanged on every acquire/release by different threads, so packing
    /// 64 of them per line would bounce that line across every core.
    struct alignas(64) PaddedFlag {
        std::atomic<std::uint8_t> v{0};
    };
    static_assert(sizeof(PaddedFlag) == 64 && alignof(PaddedFlag) == 64,
                  "misuse-check guards must not share cache lines");

    // Opcode encodings (see core/signals.hpp for the simulated twin).
    static constexpr std::uint64_t kRsNop = 0, kRsPreEntry = 1, kRsWait = 2;
    static constexpr std::uint64_t kWsBot = 0, kWsProceed = 1, kWsWait = 2,
                                   kWsCs = 3;

    static constexpr std::uint64_t pack(std::uint64_t seq, std::uint64_t op) {
        return (seq << 8) | op;
    }
    static constexpr std::uint64_t sig_seq(std::uint64_t w) { return w >> 8; }
    static constexpr std::uint64_t rs_op(std::uint64_t w) { return w & 0xff; }

    /// Exit section, lines 40-48: shared by unlock_shared and the reader
    /// abort path (which must discharge the same signalling obligations).
    void shared_exit_section(std::uint32_t g, std::uint32_t slot) {
        c_[g]->add(slot, -1);                    // Line 40.
        const std::uint64_t sig = rsig_.load();  // Line 41.
        const std::uint64_t seq = sig_seq(sig);
        if (rs_op(sig) == kRsPreEntry) {         // Line 42.
            if (c_[g]->read() == 0) {            // Line 43.
                std::uint64_t expected = pack(seq, kWsBot);
                if (wsig_[g].word.compare_exchange_strong(
                        expected, pack(seq, kWsProceed))) {  // Line 45.
                    wsig_[g].spot.wake_all(RWR_TELEM_PTR(telemetry_));
                }
            }
        } else if (rs_op(sig) == kRsWait) {  // Line 47.
            help_wcs(g, seq);                // Line 48.
        }
    }

    /// Exit section, lines 25-27: shared by unlock and the writer abort
    /// path. Advancing WSEQ invalidates every seq-stamped WSIG handshake of
    /// the aborted passage, and the RSIG store releases any reader parked
    /// on line 36.
    void writer_exit_section(std::uint32_t writer_id, std::uint64_t seq) {
        wseq_.store(seq + 1);                      // Line 25.
        rsig_.store(pack(seq + 1, kRsNop));        // Line 26.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));
        note_wl_released();
        wl_.unlock(writer_id);                     // Line 27.
    }

    void abort_writer_entry(std::uint32_t writer_id, std::uint64_t seq) {
        writer_exit_section(writer_id, seq);
        writer_release_guard(writer_id);
    }

    void help_wcs(std::uint32_t g, std::uint64_t seq) {  // Lines 50-54.
        const std::int64_t c = c_[g]->read();
        const std::int64_t w = w_[g]->read();
        if (c == w) {
            std::uint64_t expected = pack(seq, kWsWait);
            if (wsig_[g].word.compare_exchange_strong(expected,
                                                      pack(seq, kWsCs))) {
                wsig_[g].spot.wake_all(RWR_TELEM_PTR(telemetry_));
            }
        }
    }

    static std::uint32_t validated_f(std::uint32_t n, std::uint32_t m,
                                     std::uint32_t f) {
        if (n == 0 || m == 0 || f == 0 || f > n) {
            throw std::invalid_argument("AfLock: need n,m >= 1, 1 <= f <= n");
        }
        return f;
    }

    void check_reader(std::uint32_t id) const {
        if (id >= n_) {
            throw std::invalid_argument("AfLock: reader id out of range");
        }
    }
    void check_writer(std::uint32_t id) const {
        if (id >= m_) {
            throw std::invalid_argument("AfLock: writer id out of range");
        }
    }

    // ---- Misuse detection (compiled out with RWR_AF_MISUSE_CHECKS=0) ----
#if RWR_AF_MISUSE_CHECKS
    void reader_acquire_guard(std::uint32_t id) {
        if (reader_busy_[id].v.exchange(1) != 0) {
            throw std::logic_error(
                "AfLock: reader id already in an acquisition or passage "
                "(concurrent id reuse or recursive lock_shared)");
        }
    }
    void reader_release_guard(std::uint32_t id) {
        if (reader_busy_[id].v.exchange(0) == 0) {
            throw std::logic_error(
                "AfLock: unlock_shared without matching lock_shared "
                "(double release would drive C[i] negative)");
        }
    }
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
    void note_wl_held(std::uint32_t id) { wl_holder_.store(id); }
    void note_wl_released() { wl_holder_.store(kNoHolder); }
    void check_wl_held(std::uint32_t id) const {
        if (wl_holder_.load() != id) {
            throw std::logic_error(
                "AfLock: unlock by a writer that does not hold WL");
        }
    }
#else
    void reader_acquire_guard(std::uint32_t) {}
    void reader_release_guard(std::uint32_t) {}
    void writer_acquire_guard(std::uint32_t) {}
    void writer_release_guard(std::uint32_t) {}
    void note_wl_held(std::uint32_t) {}
    void note_wl_released() {}
    void check_wl_held(std::uint32_t) const {}
#endif

    std::uint32_t n_, m_, f_, k_, groups_ = 0;
    // c_/w_ hold cold unique_ptrs; the FArrayCounter nodes themselves are
    // heap-allocated with one alignas(64) node per line (counter.hpp).
    std::vector<std::unique_ptr<FArrayCounter>> c_;
    std::vector<std::unique_ptr<FArrayCounter>> w_;
    TournamentMutex wl_;
    std::unique_ptr<Signal[]> wsig_;
    alignas(64) std::atomic<std::uint64_t> wseq_{0};
    alignas(64) std::atomic<std::uint64_t> rsig_{0};  // pack(0, kRsNop).
    /// Readers parked at line 36 wait here; every rsig_ store wakes it.
    alignas(64) ParkingSpot rsig_spot_;
#if RWR_TELEMETRY
    LockTelemetry* telemetry_ = nullptr;
    /// Per-id "last attempt aborted" flags behind the *_abort_retries
    /// counters: an attempt that finds its id's flag set is a retry (the
    /// flag is cleared on every attempt and re-set on every abort, so the
    /// counts are exact, not sampled).
    std::unique_ptr<TelemetryFlag[]> reader_retry_;
    std::unique_ptr<TelemetryFlag[]> writer_retry_;
#endif
#if RWR_AF_MISUSE_CHECKS
    static constexpr std::uint32_t kNoHolder = 0xffffffffu;
    std::unique_ptr<PaddedFlag[]> reader_busy_;
    std::unique_ptr<PaddedFlag[]> writer_busy_;
    alignas(64) mutable std::atomic<std::uint32_t> wl_holder_{kNoHolder};
#endif
};

}  // namespace rwr::native
