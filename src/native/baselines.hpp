// Native baseline reader-writer locks. FaaRWLock and PhaseFairRWLock are
// the native executors of baselines/faa_protocol.inc and
// baselines/phase_fair_protocol.inc: the atomics, parking and telemetry.
// CentralizedRWLock is the one-word lock, a different algorithm
// from CentralizedSimRWLock on purpose (DESIGN.md §7): its exits use
// fetch_sub and fetch_and, where the simulated lock's CAS-retry decrement
// stays inside Theorem 5's read/write/CAS set. (For the mutex-as-RW-lock
// baseline just use TournamentMutex or std::mutex; for an
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
#include "native/steps.hpp"
#include "native/telemetry.hpp"
#include "rmr/types.hpp"

namespace rwr::native {

/// One word: bit 40 = writer present, low 32 bits = reader count.
class CentralizedRWLock {
   public:
    static constexpr std::uint64_t kWriterBit = std::uint64_t{1} << 40;

    void attach_telemetry(LockTelemetry* t) { telemetry_ = t; }

    void lock_shared(std::uint32_t /*reader_id*/ = 0) {
        acquire(
            TelemetryRole::kReader,
            [](std::uint64_t s) { return (s & kWriterBit) == 0; },  // No writer.
            [](std::uint64_t s) { return s + 1; });
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
        acquire(
            TelemetryRole::kWriter,
            [](std::uint64_t s) { return s == 0; },  // No reader, no writer.
            [](std::uint64_t) { return kWriterBit; });
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
    /// Both entries: once `free(state)`, CAS the state to `next(state)`,
    /// waiting (parked once escalated) while it is not free.
    template <class Free, class Next>
    void acquire(TelemetryRole role, Free free, Next next) {
        auto probe = TelemetryProbe::entry(telemetry_, role);
        Backoff backoff;
        Deadline never = Deadline::infinite();
        for (;;) {
            std::uint64_t cur = state_.load();
            if (free(cur)) {
                if (state_.compare_exchange_strong(cur, next(cur))) {
                    break;
                }
                // The word was free (any blocking holder handed off); we
                // merely lost the CAS to a sibling. Restart escalation --
                // carrying a slept-once stage into this fresh race turns a
                // lost CAS into a 1ms nap.
                backoff.reset();
                probe.contended();
                backoff.pause();
                continue;
            }
            probe.contended();
            wait_until(spot_, never, telemetry_, backoff,
                       [&] { return free(state_.load()); });
        }
        probe.note_backoff(backoff);
        probe.acquired();
    }

    alignas(64) std::atomic<std::uint64_t> state_{0};
    /// One spot for both sides: the lock has a single wait condition word.
    alignas(64) ParkingSpot spot_;
    LockTelemetry* telemetry_ = nullptr;
};

/// Centralized FAA lock, writer preference: baselines/faa_protocol.inc.
class FaaRWLock : private AtomicSteps {
   public:
    explicit FaaRWLock(std::uint32_t m) : wl_(m) {}

    void attach_telemetry(LockTelemetry* t) {
        telemetry_ = t;
        wl_.attach_telemetry(t);
    }

    void lock_shared(std::uint32_t reader_id = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
        reader_entry({reader_id, probe});
        probe.acquired();
    }

    void unlock_shared(std::uint32_t reader_id = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        reader_exit({reader_id, probe});
        probe.released();
    }

    void lock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter);
        writer_entry({writer_id, probe});
        probe.acquired();
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        writer_exit({writer_id, probe});
        probe.released();
    }

   private:
    void check_writer(std::uint32_t id) const {
        if (id >= wl_.capacity()) {
            throw std::invalid_argument("FaaRWLock: writer id out of range");
        }
    }

    // ---- The executor of baselines/faa_protocol.inc ----------------------
    struct Caller {
        std::uint32_t id;  ///< The reader or writer id.
        TelemetryProbe& probe;
    };

    void wl_enter(Caller c) { wl_.lock(c.id); }
    void wl_exit(Caller c) { wl_.unlock(c.id); }
    void wait_rgate(Caller c) {
        wait_contended(rgate_spot_, c.probe, telemetry_,
                       [&] { return gate_open(c); });
    }
    void wait_drained(Caller c) {
        wait_contended(wgate_spot_, c.probe, telemetry_,
                       [&] { return drained(c); });
    }
    void wake_rgate() { rgate_spot_.wake_all(telemetry_); }
    void wake_wgate() { wgate_spot_.wake_all(telemetry_); }
    static constexpr bool stale_gate() { return false; }

#define RWR_STEP
#define RWR_RETURN return
#include "baselines/faa_protocol.inc"

    TournamentMutex wl_;
    alignas(64) std::atomic<std::uint64_t> state_{0};
    alignas(64) std::atomic<std::uint64_t> rgate_{1};
    alignas(64) std::atomic<std::uint64_t> wgate_{0};
    alignas(64) ParkingSpot rgate_spot_;
    alignas(64) ParkingSpot wgate_spot_;
    LockTelemetry* telemetry_ = nullptr;
};

/// Phase-fair reader-writer lock (Brandenburg-Anderson PF-T), the fairness
/// side of the paper's open problem: baselines/phase_fair_protocol.inc.
class PhaseFairRWLock : private AtomicSteps {
   public:
    /// Throws std::invalid_argument when max_writers is 0.
    explicit PhaseFairRWLock(std::uint32_t max_writers)
        : wbits_(max_writers, 0) {
        if (max_writers == 0) {
            throw std::invalid_argument(
                "PhaseFairRWLock: max_writers must be >= 1");
        }
    }

    void attach_telemetry(LockTelemetry* t) { telemetry_ = t; }

    void lock_shared(std::uint32_t reader_id = 0) {
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
        reader_entry({reader_id, probe});
        probe.acquired();
    }

    void unlock_shared(std::uint32_t reader_id = 0) {
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kReader);
        reader_exit({reader_id, probe});
        probe.released();
    }

    void lock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kWriter);
        writer_entry({writer_id, probe});
        probe.acquired();
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        auto probe = TelemetryProbe::exit(telemetry_, TelemetryRole::kWriter);
        writer_exit({writer_id, probe});
        probe.released();
    }

   private:
    void check_writer(std::uint32_t id) const {
        if (id >= wbits_.size()) {
            throw std::invalid_argument(
                "PhaseFairRWLock: writer id out of range");
        }
    }

    // ---- The executor of baselines/phase_fair_protocol.inc ---------------
    struct Caller {
        std::uint32_t id;  ///< The reader or writer id.
        TelemetryProbe& probe;
    };

    static std::uint32_t index(Caller c) { return c.id; }
    void wait_phase(Caller c, Word w) {
        wait_contended(rin_spot_, c.probe, telemetry_,
                       [&] { return phase_over(c, w); });
    }
    void wait_turn(Caller c, Word ticket) {
        wait_contended(wout_spot_, c.probe, telemetry_,
                       [&] { return turn_come(c, ticket); });
    }
    void wait_drained(Caller c, Word rticket) {
        wait_contended(rout_spot_, c.probe, telemetry_,
                       [&] { return drained(c, rticket); });
    }
    void wake_rin() { rin_spot_.wake_all(telemetry_); }
    void wake_rout() { rout_spot_.wake_all(telemetry_); }
    void wake_wout() { wout_spot_.wake_all(telemetry_); }

#define RWR_STEP
#define RWR_RETURN return
#include "baselines/phase_fair_protocol.inc"

    alignas(64) std::atomic<std::uint64_t> rin_{0};
    alignas(64) std::atomic<std::uint64_t> rout_{0};
    alignas(64) std::atomic<std::uint64_t> win_{0};
    alignas(64) std::atomic<std::uint64_t> wout_{0};
    alignas(64) ParkingSpot rin_spot_;
    alignas(64) ParkingSpot rout_spot_;
    alignas(64) ParkingSpot wout_spot_;
    std::vector<std::uint64_t> wbits_;
    LockTelemetry* telemetry_ = nullptr;
};

}  // namespace rwr::native
