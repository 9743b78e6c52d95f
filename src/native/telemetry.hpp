// Low-overhead lock telemetry for the native tier.
//
// The simulator attributes every step to a section (rmr/stats.hpp), so the
// paper's RMR claims are directly measurable there; the native tier used to
// be a black box. LockTelemetry makes the same behaviour visible on real
// hardware: per-thread, cache-line-padded counter slabs (acquisitions,
// contended acquisitions, aborts/timeouts, backoff stage escalations) and
// fixed-bucket log2 latency histograms for reader/writer entry and exit.
//
// Design constraints, in priority order:
//   1. A null check and no memory when detached. A lock with no sink
//      attached pays one null check per hook: no atomics, no clock reads,
//      and no read of the thread-local sampling sequence. Attaching or
//      detaching a sink is a pointer store that allocates nothing, and a
//      sink allocates a thread's slab on that thread's first report.
//   2. Low overhead when attached. All writes go to the calling thread's
//      own cache-line-padded slab with relaxed atomics (racing only if more
//      threads than slots exist, which stays correct -- fetch_add -- just
//      contended); finding the slab costs one acquire load. Latency is
//      *sampled*: 1 in kSampleEvery acquisitions reads the clock, so the
//      steady_clock cost is amortized to noise.
//   3. Lock-free aggregation on demand. aggregate() sums the slabs with
//      relaxed loads while the workload keeps running; counters are
//      monotone, so a snapshot is a consistent lower bound at all times.
//
// Wiring: locks own a `LockTelemetry*` (null = detached) and report every
// acquisition and release through one TelemetryProbe, whose role picks the
// counters. native/baselines.hpp shows the plain pattern; AfLock
// (native/af_lock.hpp) carries its probe through the protocol's waits.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <new>

#include "native/spin.hpp"

namespace rwr::native {

/// Counter identities. Reader/writer track RW-lock roles; Mutex tracks
/// standalone mutexes (TournamentMutex as WL reports under Mutex so writer
/// passages are not double counted by their embedded WL climb).
enum class TelemetryCounter : std::uint32_t {
    kReaderAcquire = 0,   ///< Successful lock_shared passages entered.
    kReaderContended,     ///< ... of which waited at least once.
    kReaderAbort,         ///< Failed try/timed lock_shared (incl. timeouts).
    kWriterAcquire,       ///< Successful lock passages entered.
    kWriterContended,     ///< ... of which waited at least once.
    kWriterAbort,         ///< Failed try/timed lock (incl. timeouts).
    kMutexAcquire,        ///< Standalone mutex acquisitions (WL, MCS, ...).
    kMutexContended,      ///< ... of which waited at least once.
    kMutexAbort,          ///< Failed try/timed mutex acquisitions.
    kBackoffYield,        ///< Waits that escalated pause -> yield.
    kBackoffSleep,        ///< Waits that escalated yield -> sleep.
    kFutexWait,           ///< Kernel (or portable-fallback) parked waits.
    kFutexWake,           ///< Wake calls issued with waiters registered.
    kParkAbort,           ///< Parked waits ended by deadline expiry.
    kNumCounters
};

/// Latency histogram identities (entry = acquisition call, exit = release).
enum class TelemetryHisto : std::uint32_t {
    kReaderEntry = 0,
    kReaderExit,
    kWriterEntry,
    kWriterExit,
    /// Time spent inside an acquisition call that ended in an abort
    /// (deadline expiry or failed try): how long a caller paid before
    /// giving up. Fed by stop_into() from the entry stopwatches, so its
    /// sampling rides the entry histograms' sequences.
    kAbortLatency,
    kNumHistos
};

inline constexpr std::uint32_t kTelemetryCounters =
    static_cast<std::uint32_t>(TelemetryCounter::kNumCounters);
inline constexpr std::uint32_t kTelemetryHistos =
    static_cast<std::uint32_t>(TelemetryHisto::kNumHistos);
/// log2 ns buckets: bucket b counts samples with latency in [2^b, 2^(b+1))
/// ns (bucket 0 also absorbs sub-ns); 40 buckets reach ~18 minutes.
inline constexpr std::uint32_t kTelemetryBuckets = 40;

/// The log2 bucket of a latency: floor(log2 ns), 0 for ns = 0, capped at
/// the last of `buckets` buckets. LockTelemetry's histograms and
/// dist::SessionStats both bucket with it.
constexpr std::uint32_t log2_bucket(std::uint64_t ns, std::uint32_t buckets) {
    return ns == 0 ? 0
                   : std::min(buckets - 1, static_cast<std::uint32_t>(
                                               std::bit_width(ns) - 1));
}

inline const char* to_string(TelemetryCounter c) {
    switch (c) {
        case TelemetryCounter::kReaderAcquire: return "reader_acquisitions";
        case TelemetryCounter::kReaderContended: return "reader_contended";
        case TelemetryCounter::kReaderAbort: return "reader_aborts";
        case TelemetryCounter::kWriterAcquire: return "writer_acquisitions";
        case TelemetryCounter::kWriterContended: return "writer_contended";
        case TelemetryCounter::kWriterAbort: return "writer_aborts";
        case TelemetryCounter::kMutexAcquire: return "mutex_acquisitions";
        case TelemetryCounter::kMutexContended: return "mutex_contended";
        case TelemetryCounter::kMutexAbort: return "mutex_aborts";
        case TelemetryCounter::kBackoffYield: return "backoff_yield_transitions";
        case TelemetryCounter::kBackoffSleep: return "backoff_sleep_transitions";
        case TelemetryCounter::kFutexWait: return "futex_waits";
        case TelemetryCounter::kFutexWake: return "futex_wakes";
        case TelemetryCounter::kParkAbort: return "park_aborts";
        default: return "?";
    }
}

inline const char* to_string(TelemetryHisto h) {
    switch (h) {
        case TelemetryHisto::kReaderEntry: return "reader_entry";
        case TelemetryHisto::kReaderExit: return "reader_exit";
        case TelemetryHisto::kWriterEntry: return "writer_entry";
        case TelemetryHisto::kWriterExit: return "writer_exit";
        case TelemetryHisto::kAbortLatency: return "abort_latency";
        default: return "?";
    }
}

/// Plain-value aggregate of a LockTelemetry instance; safe to copy around,
/// subtract (interval deltas) and serialize.
struct TelemetrySnapshot {
    std::array<std::uint64_t, kTelemetryCounters> counters{};
    std::array<std::array<std::uint64_t, kTelemetryBuckets>, kTelemetryHistos>
        histos{};

    [[nodiscard]] std::uint64_t count(TelemetryCounter c) const {
        return counters[static_cast<std::uint32_t>(c)];
    }

    [[nodiscard]] std::uint64_t samples(TelemetryHisto h) const {
        std::uint64_t total = 0;
        for (const auto v : histos[static_cast<std::uint32_t>(h)]) {
            total += v;
        }
        return total;
    }

    /// Quantile estimate from the log2 histogram: upper bound of the bucket
    /// containing the q-th sample (q in [0,1]). 0 when no samples.
    [[nodiscard]] std::uint64_t quantile_ns(TelemetryHisto h,
                                            double q) const {
        const auto& buckets = histos[static_cast<std::uint32_t>(h)];
        const std::uint64_t total = samples(h);
        if (total == 0) {
            return 0;
        }
        auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
        if (rank >= total) {
            rank = total - 1;
        }
        std::uint64_t seen = 0;
        for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
            seen += buckets[b];
            if (seen > rank) {
                return bucket_upper_ns(b);
            }
        }
        return bucket_upper_ns(kTelemetryBuckets - 1);
    }

    static constexpr std::uint64_t bucket_upper_ns(std::uint32_t b) {
        return std::uint64_t{1} << (b + 1);
    }

    TelemetrySnapshot& operator-=(const TelemetrySnapshot& o) {
        for (std::uint32_t c = 0; c < kTelemetryCounters; ++c) {
            counters[c] -= o.counters[c];
        }
        for (std::uint32_t h = 0; h < kTelemetryHistos; ++h) {
            for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
                histos[h][b] -= o.histos[h][b];
            }
        }
        return *this;
    }
};

/// Telemetry is always compiled in. Kept for code that prints a build's
/// configuration.
constexpr bool telemetry_enabled() { return true; }

namespace detail {
/// Process-wide thread index for slot hashing; assigned once per thread on
/// first telemetry touch. Instance-independent on purpose: one TLS read,
/// no per-instance registry on the hot path.
inline std::uint32_t telemetry_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx;
}
}  // namespace detail

class LockTelemetry {
   public:
    /// Holds no slab until a thread reports: each thread's slab is
    /// allocated on its first report (install()). More concurrent threads
    /// than slots stays correct -- the colliding threads share a slab with
    /// relaxed fetch_adds.
    LockTelemetry() = default;

    LockTelemetry(const LockTelemetry&) = delete;
    LockTelemetry& operator=(const LockTelemetry&) = delete;

    ~LockTelemetry() {
        for (const auto& cell : slabs_) {
            delete cell.load(std::memory_order_acquire);
        }
    }

    void count(TelemetryCounter c, std::uint64_t delta = 1) {
        slab().counters[static_cast<std::uint32_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }

    /// One in kSampleEvery events gets timed, keeping clock reads off the
    /// common path. The sequence is thread-local and plain (not atomic):
    /// the decision needs no cross-thread coordination, and an RMW here
    /// would be the single hottest telemetry instruction -- it runs on
    /// every acquisition and release. Kept per histogram: one shared
    /// counter plus a strictly alternating entry/exit call pattern would
    /// park the (even) sampling period on entries forever and leave the
    /// exit histograms empty.
    [[nodiscard]] bool should_sample(TelemetryHisto h) {
        thread_local std::uint32_t seqs[kTelemetryHistos] = {};
        return (seqs[static_cast<std::uint32_t>(h)]++ &
                (kSampleEvery - 1)) == 0;
    }

    void record_ns(TelemetryHisto h, std::uint64_t ns) {
        slab().histos[static_cast<std::uint32_t>(h)]
                     [log2_bucket(ns, kTelemetryBuckets)]
                         .fetch_add(1, std::memory_order_relaxed);
    }

    /// Record which escalation stage a finished wait reached. Call once per
    /// await loop, after it exits (the stage is monotone within one wait).
    void note_backoff(const Backoff& b) {
        switch (b.stage()) {
            case Backoff::Stage::Sleep:
                count(TelemetryCounter::kBackoffSleep);
                [[fallthrough]];
            case Backoff::Stage::Yield:
                count(TelemetryCounter::kBackoffYield);
                break;
            case Backoff::Stage::Spin:
                break;
        }
    }

    /// Lock-free on-demand aggregation: relaxed-sums the installed slabs
    /// and the shared one. Safe to call concurrently with a running
    /// workload; counters are monotone so the result is a consistent
    /// point-in-time lower bound.
    [[nodiscard]] TelemetrySnapshot aggregate() const {
        TelemetrySnapshot snap;
        add_into(shared_, snap);
        for (const auto& cell : slabs_) {
            if (const Slab* s = cell.load(std::memory_order_acquire)) {
                add_into(*s, snap);
            }
        }
        return snap;
    }

    /// How many per-thread slabs are installed: one per slot index some
    /// thread has reported from, the shared slab not counted.
    [[nodiscard]] std::uint32_t slabs() const {
        return static_cast<std::uint32_t>(
            std::ranges::count_if(slabs_, [](const auto& cell) {
                return cell.load(std::memory_order_acquire) != nullptr;
            }));
    }

    static constexpr std::uint32_t kSampleEvery = 16;  // Power of two.
    static constexpr std::uint32_t kSlots = 64;        // Power of two.

   private:
    struct alignas(64) Slab {
        std::atomic<std::uint64_t> counters[kTelemetryCounters]{};
        std::atomic<std::uint64_t> histos[kTelemetryHistos]
                                         [kTelemetryBuckets]{};
    };
    static_assert(sizeof(Slab) % 64 == 0,
                  "telemetry slabs must not share cache lines");

    static void add_into(const Slab& slab, TelemetrySnapshot& snap) {
        for (std::uint32_t c = 0; c < kTelemetryCounters; ++c) {
            snap.counters[c] +=
                slab.counters[c].load(std::memory_order_relaxed);
        }
        for (std::uint32_t h = 0; h < kTelemetryHistos; ++h) {
            for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
                snap.histos[h][b] +=
                    slab.histos[h][b].load(std::memory_order_relaxed);
            }
        }
    }

    Slab& slab() {
        std::atomic<Slab*>& cell =
            slabs_[detail::telemetry_thread_index() & (kSlots - 1)];
        Slab* s = cell.load(std::memory_order_acquire);
        return s != nullptr ? *s : install(cell);
    }

    /// The first report from `cell`'s slot index: allocates its slab and
    /// publishes it by CAS. A thread that loses the race to a thread of the
    /// same index deletes its copy and counts into the winner's. If the
    /// allocation fails, the report goes to the shared slab, which
    /// aggregate() also sums, so no report throws out of a lock operation
    /// and no count is lost; the next report tries to allocate again.
    /// Out of line: it runs once per thread and slot index.
    [[gnu::cold, gnu::noinline]] Slab& install(std::atomic<Slab*>& cell) {
        Slab* fresh = new (std::nothrow) Slab();
        if (fresh == nullptr) {
            return shared_;
        }
        Slab* seen = nullptr;
        if (cell.compare_exchange_strong(seen, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            return *fresh;
        }
        delete fresh;
        return *seen;
    }

    std::atomic<Slab*> slabs_[kSlots] = {};
    Slab shared_;
};

/// Which of TelemetryCounter's reader, writer and mutex groups a probe
/// feeds.
enum class TelemetryRole : std::uint32_t { kReader = 0, kWriter, kMutex };

/// The telemetry of one lock operation, an acquisition or a release: a
/// sampled stopwatch, the contended flag, the role's acquire, contended and
/// abort counts, and the backoff stages its waits reached.
/// It lives on the caller's stack; with no sink attached each hook is one
/// null check, and the sampling sequence is never read.
///
///   auto probe = TelemetryProbe::entry(telemetry_, TelemetryRole::kReader);
///   ... probe.contended(); wait; probe.note_backoff(backoff); ...
///   probe.acquired();  // or probe.aborted()
class TelemetryProbe {
   public:
    /// An acquisition, timed on the role's entry histogram. A mutex times
    /// only its aborts, so its stopwatch arms on kAbortLatency's sampling
    /// sequence and a successful climb costs at most that decision.
    static TelemetryProbe entry(LockTelemetry* t, TelemetryRole role) {
        return {t, role, kRoles[index(role)].entry};
    }

    /// A release, timed on the role's exit histogram; kMutex has none.
    static TelemetryProbe exit(LockTelemetry* t, TelemetryRole role) {
        return {t, role, kRoles[index(role)].exit};
    }

    TelemetryProbe(const TelemetryProbe&) = delete;
    TelemetryProbe& operator=(const TelemetryProbe&) = delete;

    /// The acquisition waited; counted once, if it succeeds.
    void contended() { contended_ = true; }

    /// Call once per wait, after it ends.
    void note_backoff(const Backoff& b) {
        if (t_ != nullptr) {
            t_->note_backoff(b);
        }
    }

    /// The acquisition succeeded: counts it, as contended if it waited,
    /// and records its entry latency (a mutex records none).
    void acquired() {
        if (t_ == nullptr) {
            return;
        }
        const Role& r = kRoles[index(role_)];
        t_->count(r.acquire);
        if (contended_) {
            t_->count(r.contended);
        }
        if (h_ != TelemetryHisto::kAbortLatency) {
            stop_into(h_);
        }
    }

    /// The acquisition gave up: counts the abort and times the attempt
    /// under kAbortLatency instead of the entry histogram, so abandoned
    /// attempts do not skew its quantiles.
    void aborted() {
        if (t_ == nullptr) {
            return;
        }
        t_->count(kRoles[index(role_)].abort);
        stop_into(TelemetryHisto::kAbortLatency);
    }

    void released() { stop_into(h_); }

   private:
    struct Role {
        TelemetryCounter acquire, contended, abort;
        TelemetryHisto entry, exit;
    };
    using C = TelemetryCounter;
    using H = TelemetryHisto;
    static constexpr Role kRoles[] = {
        {C::kReaderAcquire, C::kReaderContended, C::kReaderAbort,
         H::kReaderEntry, H::kReaderExit},
        {C::kWriterAcquire, C::kWriterContended, C::kWriterAbort,
         H::kWriterEntry, H::kWriterExit},
        {C::kMutexAcquire, C::kMutexContended, C::kMutexAbort,
         H::kAbortLatency, H::kNumHistos},
    };

    static constexpr std::uint32_t index(TelemetryRole r) {
        return static_cast<std::uint32_t>(r);
    }

    TelemetryProbe(LockTelemetry* t, TelemetryRole role, TelemetryHisto h)
        : t_(t),
          role_(role),
          h_(h),
          armed_(t != nullptr && h != TelemetryHisto::kNumHistos &&
                 t->should_sample(h)) {
        if (armed_) {
            start_ = std::chrono::steady_clock::now();
        }
    }

    void stop_into(TelemetryHisto h) {
        if (armed_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            t_->record_ns(h, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
            armed_ = false;
        }
    }

    LockTelemetry* t_;
    TelemetryRole role_;
    TelemetryHisto h_;  ///< Whose sampling sequence armed the stopwatch.
    bool armed_;
    bool contended_ = false;
    std::chrono::steady_clock::time_point start_{};
};

}  // namespace rwr::native
