// Native baseline reader-writer locks, mirroring baselines/sim_baselines.*:
// the one-word CAS lock and the FAA writer-preference lock. (For the
// mutex-as-RW-lock baseline just use TournamentMutex or std::mutex; for an
// industrial-strength comparison point the benches use std::shared_mutex.)
//
// All baselines accept a LockTelemetry sink (attach_telemetry) reporting
// the same counters/histograms as AfLock, so the perf pipeline can compare
// locks on identical axes. FaaRWLock and PhaseFairRWLock check a writer id
// before any shared state changes: one at or above the lock's writer count
// throws std::invalid_argument, as in AfLock and TournamentMutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/telemetry.hpp"

namespace rwr::native {

/// One word: bit 40 = writer present, low 32 bits = reader count.
class CentralizedRWLock {
   public:
    static constexpr std::uint64_t kWriterBit = std::uint64_t{1} << 40;

    void attach_telemetry(LockTelemetry* t) { telemetry_ = t; }

    void lock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
        Backoff backoff;
        Deadline never = Deadline::infinite();
        for (;;) {
            std::uint64_t cur = state_.load();
            if ((cur & kWriterBit) == 0) {
                if (state_.compare_exchange_strong(cur, cur + 1)) {
                    break;
                }
                // The word is reader-open (any blocking writer handed
                // off); we merely lost the CAS to a sibling. Restart
                // escalation -- carrying a slept-once stage into this
                // fresh race turns a lost CAS into a 1ms nap.
                backoff.reset();
                probe.contended();
                backoff.pause();
                continue;
            }
            probe.contended();
            // Writer present: wait (parked once escalated) for the bit to
            // clear, then go back around for the CAS.
            wait_until(spot_, never, telemetry_, backoff,
                       [&] { return (state_.load() & kWriterBit) == 0; });
        }
        probe.note_backoff(backoff);
        probe.acquired();
    }

    void unlock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        const std::uint64_t prior =
            state_.fetch_sub(1);  // Note: native CPUs give us FAA for free;
                                  // the simulated twin uses a CAS loop to
                                  // stay within the paper's primitive set.
        if ((prior & ~kWriterBit) == 1) {
            // Last reader out: a writer parked on state_ == 0 can now run.
            spot_.wake_all(telemetry_);
        }
        probe.released();
    }

    void lock(std::uint32_t /*writer_id*/ = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter);
        Backoff backoff;
        Deadline never = Deadline::infinite();
        for (;;) {
            if (state_.load() == 0) {
                std::uint64_t expected = 0;
                if (state_.compare_exchange_strong(expected, kWriterBit)) {
                    break;
                }
                // Observed the hand-off (word was free), lost the race:
                // the wait for the new holder is a new wait.
                backoff.reset();
                probe.contended();
                backoff.pause();
                continue;
            }
            probe.contended();
            wait_until(spot_, never, telemetry_, backoff,
                       [&] { return state_.load() == 0; });
        }
        probe.note_backoff(backoff);
        probe.acquired();
    }

    void unlock(std::uint32_t /*writer_id*/ = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        state_.fetch_and(~kWriterBit);
        // Readers park on the writer bit, writers on state_ == 0; both
        // become acquirable here.
        spot_.wake_all(telemetry_);
        probe.released();
    }

   private:
    alignas(64) std::atomic<std::uint64_t> state_{0};
    /// One spot for both sides: the lock has a single wait condition word.
    alignas(64) ParkingSpot spot_;
    LockTelemetry* telemetry_ = nullptr;
};

/// Centralized FAA lock, writer preference (constant-RMR hot paths, in the
/// spirit of the Bhatt-Jayanti lock cited in the paper's Discussion).
class FaaRWLock {
   public:
    explicit FaaRWLock(std::uint32_t m) : wl_(m) {}

    static constexpr std::uint64_t kWriterBit = std::uint64_t{1} << 40;
    static constexpr std::uint64_t kCountMask = 0xffffffffu;

    void attach_telemetry(LockTelemetry* t) {
        telemetry_ = t;
        wl_.attach_telemetry(t);
    }

    void lock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
        for (;;) {
            const std::uint64_t prior = state_.fetch_add(1);
            if ((prior & kWriterBit) == 0) {
                break;
            }
            const std::uint64_t backout =
                state_.fetch_sub(1);  // Signal like an exit would.
            if ((backout & kWriterBit) != 0 && (backout & kCountMask) == 1) {
                wgate_.store(1);
                wgate_spot_.wake_all(telemetry_);
            }
            probe.contended();
            Backoff backoff;  // Fresh per retry: each rgate wait is one
                              // hand-off (Backoff lifecycle contract).
            Deadline never = Deadline::infinite();
            wait_until(rgate_spot_, never, telemetry_, backoff,
                       [&] { return rgate_.load() == 1; });
            probe.note_backoff(backoff);
        }
        probe.acquired();
    }

    void unlock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        const std::uint64_t prior = state_.fetch_sub(1);
        if ((prior & kWriterBit) != 0 && (prior & kCountMask) == 1) {
            wgate_.store(1);
            wgate_spot_.wake_all(telemetry_);
        }
        probe.released();
    }

    void lock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter);
        wl_.lock(writer_id);
        rgate_.store(0);
        wgate_.store(0);
        const std::uint64_t prior = state_.fetch_add(kWriterBit);
        if ((prior & kCountMask) != 0) {
            probe.contended();
            Backoff backoff;
            Deadline never = Deadline::infinite();
            // wgate_ only says some reader drained a writer's readers: a
            // reader that backed out under the previous writer can set it
            // after our reset, while a reader that entered between the two
            // writers is still in the CS. The count in state_ decides.
            wait_until(wgate_spot_, never, telemetry_, backoff, [&] {
                return wgate_.load() == 1 &&
                       (state_.load() & kCountMask) == 0;
            });
            probe.note_backoff(backoff);
        }
        probe.acquired();
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        state_.fetch_sub(kWriterBit);
        rgate_.store(1);
        rgate_spot_.wake_all(telemetry_);
        wl_.unlock(writer_id);
        probe.released();
    }

   private:
    void check_writer(std::uint32_t id) const {
        if (id >= wl_.capacity()) {
            throw std::invalid_argument("FaaRWLock: writer id out of range");
        }
    }

    TournamentMutex wl_;
    alignas(64) std::atomic<std::uint64_t> state_{0};
    alignas(64) std::atomic<std::uint64_t> rgate_{1};
    alignas(64) std::atomic<std::uint64_t> wgate_{0};
    alignas(64) ParkingSpot rgate_spot_;
    alignas(64) ParkingSpot wgate_spot_;
    LockTelemetry* telemetry_ = nullptr;
};

/// Phase-fair reader-writer lock (Brandenburg-Anderson PF-T): reader and
/// writer phases alternate, so neither side can starve the other. Built on
/// fetch-and-add tickets -- see baselines/phase_fair.hpp for why this sits
/// outside the paper's read/write/CAS tradeoff (it is the fairness side of
/// the paper's open problem, not a frontier point).
class PhaseFairRWLock {
   public:
    static constexpr std::uint64_t kRinc = 0x100;
    static constexpr std::uint64_t kPres = 0x1;
    static constexpr std::uint64_t kPhid = 0x2;
    static constexpr std::uint64_t kWBits = kPres | kPhid;

    /// Throws std::invalid_argument when max_writers is 0.
    explicit PhaseFairRWLock(std::uint32_t max_writers)
        : writer_wbits_(max_writers, 0) {
        if (max_writers == 0) {
            throw std::invalid_argument(
                "PhaseFairRWLock: max_writers must be >= 1");
        }
    }

    void attach_telemetry(LockTelemetry* t) { telemetry_ = t; }

    void lock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
        const std::uint64_t w = rin_.fetch_add(kRinc) & kWBits;
        if (w != 0) {
            probe.contended();
            Backoff backoff;
            Deadline never = Deadline::infinite();
            wait_until(rin_spot_, never, telemetry_, backoff,
                       [&] { return (rin_.load() & kWBits) != w; });
            probe.note_backoff(backoff);
        }
        probe.acquired();
    }

    void unlock_shared(std::uint32_t /*reader_id*/ = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        rout_.fetch_add(kRinc);
        // The phase writer parks on rout_ reaching its reader ticket.
        rout_spot_.wake_all(telemetry_);
        probe.released();
    }

    void lock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter);
        const std::uint64_t ticket = win_.fetch_add(1);
        Backoff backoff;
        Deadline never = Deadline::infinite();
        if (wout_.load() != ticket) {
            probe.contended();
        }
        wait_until(wout_spot_, never, telemetry_, backoff,
                   [&] { return wout_.load() == ticket; });
        probe.note_backoff(backoff);
        const std::uint64_t w = kPres | ((ticket & 1) << 1);
        writer_wbits_[writer_id] = w;
        const std::uint64_t rticket = rin_.fetch_add(w) & ~kWBits;
        backoff.reset();  // Second gate of the same passage: new wait.
        if (rout_.load() != rticket) {
            probe.contended();
        }
        wait_until(rout_spot_, never, telemetry_, backoff,
                   [&] { return rout_.load() == rticket; });
        probe.note_backoff(backoff);
        probe.acquired();
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        rin_.fetch_sub(writer_wbits_[writer_id]);
        // Blocked readers park on the wbits in rin_ clearing.
        rin_spot_.wake_all(telemetry_);
        wout_.fetch_add(1);
        // The next phase writer parks on its wout_ ticket coming up.
        wout_spot_.wake_all(telemetry_);
        probe.released();
    }

   private:
    void check_writer(std::uint32_t id) const {
        if (id >= writer_wbits_.size()) {
            throw std::invalid_argument(
                "PhaseFairRWLock: writer id out of range");
        }
    }

    alignas(64) std::atomic<std::uint64_t> rin_{0};
    alignas(64) std::atomic<std::uint64_t> rout_{0};
    alignas(64) std::atomic<std::uint64_t> win_{0};
    alignas(64) std::atomic<std::uint64_t> wout_{0};
    alignas(64) ParkingSpot rin_spot_;
    alignas(64) ParkingSpot rout_spot_;
    alignas(64) ParkingSpot wout_spot_;
    std::vector<std::uint64_t> writer_wbits_;
    LockTelemetry* telemetry_ = nullptr;
};

}  // namespace rwr::native
