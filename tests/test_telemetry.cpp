// LockTelemetry behaviour: one conformance suite run on every native RW
// lock (exact solo counts, detachment, attachment without allocation,
// contended passages, sampled latencies, refused writer ids), exact abort
// accounting, slabs installed only for threads that report, exact totals
// under an 8-thread workload (this test runs under TSan in CI -- any
// counter race or slab publication race is a bug), histogram
// bucketing/quantiles, and the parking counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/shared_mutex.hpp"
#include "native/telemetry.hpp"

// This binary replaces every global operator new and delete, so that a
// test can count the allocations a call makes (g_allocations) and fail one
// kind of them. Every form allocates with aligned_alloc and frees with
// free, so the sanitizers, which intercept both, see matching pairs.

namespace {

/// Every operator new call so far.
std::atomic<std::uint64_t> g_allocations{0};

/// While set, the over-aligned nothrow operator new fails. In this binary
/// only LockTelemetry's slab installation calls it (a slab is
/// alignas(64)), so a test can make exactly that allocation fail.
std::atomic<bool> g_fail_slab_allocation{false};

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = std::max(static_cast<std::size_t>(align),
                                   alignof(std::max_align_t));
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) /
                                     a * a);
}

void* counted_or_throw(std::size_t size, std::align_val_t align) {
    if (void* p = counted_alloc(size, align)) {
        return p;
    }
    throw std::bad_alloc();
}

/// Out of line, so that GCC does not see a free() inlined into a delete
/// expression and warn that it does not match the operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

constexpr std::align_val_t kPlain{alignof(std::max_align_t)};

}  // namespace

using std::align_val_t;
using std::nothrow_t;
using std::size_t;

void* operator new(size_t n) { return counted_or_throw(n, kPlain); }
void* operator new[](size_t n) { return counted_or_throw(n, kPlain); }
void* operator new(size_t n, align_val_t a) { return counted_or_throw(n, a); }
void* operator new[](size_t n, align_val_t a) {
    return counted_or_throw(n, a);
}
void* operator new(size_t n, const nothrow_t&) noexcept {
    return counted_alloc(n, kPlain);
}
void* operator new[](size_t n, const nothrow_t&) noexcept {
    return counted_alloc(n, kPlain);
}
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
    return g_fail_slab_allocation.load() ? nullptr : counted_alloc(n, a);
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
    return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, size_t) noexcept { release(p); }
void operator delete[](void* p, size_t) noexcept { release(p); }
void operator delete(void* p, align_val_t) noexcept { release(p); }
void operator delete[](void* p, align_val_t) noexcept { release(p); }
void operator delete(void* p, size_t, align_val_t) noexcept { release(p); }
void operator delete[](void* p, size_t, align_val_t) noexcept { release(p); }
void operator delete(void* p, const nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { release(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept {
    release(p);
}
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept {
    release(p);
}

namespace {

using namespace rwr::native;
using namespace std::chrono_literals;

TEST(TelemetryTest, EnabledInDefaultBuild) {
    EXPECT_TRUE(telemetry_enabled());
}

// ---- One set of checks on every native RW lock ------------------------------

/// The suite's calls on a lock that takes reader and writer ids.
/// Writer ids are 0..kWriters-1; kWriters = 0 means the lock has no writer
/// ids (CentralizedRWLock ignores them). kWlPerWriterPassage is 1 for the
/// locks whose writers climb an embedded WL, which reports under mutex_*.
template <class L, std::uint32_t Writers, std::uint64_t WlPerWriterPassage>
struct IdLockOps {
    static constexpr std::uint32_t kWriters = Writers;
    static constexpr std::uint64_t kWlPerWriterPassage = WlPerWriterPassage;
    static constexpr bool kAbortable = false;
    using BadId = std::invalid_argument;
    static void lock_shared(L& l, std::uint32_t r) { l.lock_shared(r); }
    static void unlock_shared(L& l, std::uint32_t r) { l.unlock_shared(r); }
    static void lock(L& l, std::uint32_t w) { l.lock(w); }
    static void unlock(L& l, std::uint32_t w) { l.unlock(w); }
    static void bad_lock(L& l) { l.lock(kWriters); }
    static void bad_unlock(L& l) { l.unlock(kWriters); }
};

struct AfLockOps : IdLockOps<AfLock, 2, 1> {
    static constexpr const char* kName = "AfLock";
    static constexpr bool kAbortable = true;
    static std::unique_ptr<AfLock> make(std::uint32_t m = kWriters) {
        return std::make_unique<AfLock>(4, m, 2);
    }
    static bool try_lock_shared(AfLock& l, std::uint32_t r) {
        return l.try_lock_shared(r);
    }
    static bool try_lock(AfLock& l, std::uint32_t w) { return l.try_lock(w); }
};

/// Runs `f` on a thread of its own and rethrows what it threw.
template <class F>
void on_new_thread(F&& f) {
    std::exception_ptr error;
    std::thread t([&] {
        try {
            f();
        } catch (...) {
            error = std::current_exception();
        }
    });
    t.join();
    if (error) {
        std::rethrow_exception(error);
    }
}

/// The facade leases ids per thread and ignores the suite's. Its one writer
/// slot goes to the first thread that writes, so a bad writer is a second
/// thread, refused with std::runtime_error before it touches the lock.
struct SharedMutexOps {
    static constexpr const char* kName = "AfSharedMutex";
    static constexpr std::uint32_t kWriters = 1;
    static constexpr std::uint64_t kWlPerWriterPassage = 1;
    static constexpr bool kAbortable = true;
    using BadId = std::runtime_error;
    using L = AfSharedMutex;
    static std::unique_ptr<L> make(std::uint32_t m = kWriters) {
        return std::make_unique<L>(4, m);
    }
    static void lock_shared(L& l, std::uint32_t) { l.lock_shared(); }
    static void unlock_shared(L& l, std::uint32_t) { l.unlock_shared(); }
    static void lock(L& l, std::uint32_t) { l.lock(); }
    static void unlock(L& l, std::uint32_t) { l.unlock(); }
    static bool try_lock_shared(L& l, std::uint32_t) {
        return l.try_lock_shared();
    }
    static bool try_lock(L& l, std::uint32_t) { return l.try_lock(); }
    static void bad_lock(L& l) {
        on_new_thread([&] { l.lock(); });
    }
    static void bad_unlock(L& l) {
        on_new_thread([&] { l.unlock(); });
    }
};

struct CentralizedOps : IdLockOps<CentralizedRWLock, 0, 0> {
    static constexpr const char* kName = "CentralizedRWLock";
    static std::unique_ptr<CentralizedRWLock> make(std::uint32_t = 0) {
        return std::make_unique<CentralizedRWLock>();
    }
};

struct FaaOps : IdLockOps<FaaRWLock, 2, 1> {
    static constexpr const char* kName = "FaaRWLock";
    static std::unique_ptr<FaaRWLock> make(std::uint32_t m = kWriters) {
        return std::make_unique<FaaRWLock>(m);
    }
};

struct PhaseFairOps : IdLockOps<PhaseFairRWLock, 2, 0> {
    static constexpr const char* kName = "PhaseFairRWLock";
    static std::unique_ptr<PhaseFairRWLock> make(std::uint32_t m = kWriters) {
        return std::make_unique<PhaseFairRWLock>(m);
    }
};

struct OpsName {
    template <class D>
    static std::string GetName(int) {
        return D::kName;
    }
};

template <class D>
class RwLockConformance : public ::testing::Test {};
using AllLockOps = ::testing::Types<AfLockOps, SharedMutexOps,
                                   CentralizedOps, FaaOps, PhaseFairOps>;
TYPED_TEST_SUITE(RwLockConformance, AllLockOps, OpsName);

using C = TelemetryCounter;

/// Every counter of `snap` is 0 except those `expected` names.
void expect_counts(
    const TelemetrySnapshot& snap,
    std::initializer_list<std::pair<C, std::uint64_t>> expected) {
    for (std::uint32_t c = 0; c < kTelemetryCounters; ++c) {
        const auto id = static_cast<C>(c);
        std::uint64_t want = 0;
        for (const auto& [k, v] : expected) {
            want = k == id ? v : want;
        }
        EXPECT_EQ(snap.count(id), want) << to_string(id);
    }
}

/// Waits up to 10 s for a thread to park on a lock `telemetry` is
/// attached to; true once one has.
bool await_park(const LockTelemetry& telemetry) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (telemetry.aggregate().count(C::kFutexWait) == 0) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

template <class D, class L>
void passages(L& lock, std::uint32_t readers, std::uint32_t writers) {
    for (std::uint32_t i = 0; i < readers; ++i) {
        D::lock_shared(lock, 1);
        D::unlock_shared(lock, 1);
    }
    for (std::uint32_t i = 0; i < writers; ++i) {
        D::lock(lock, 0);
        D::unlock(lock, 0);
    }
}

TYPED_TEST(RwLockConformance, SoloPassagesAreCountedExactly) {
    using D = TypeParam;
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    passages<D>(*lock, 10, 7);
    // One thread reported, into one slab.
    EXPECT_EQ(telemetry.slabs(), 1u);
    // Nobody waited, parked, woke anyone or aborted.
    expect_counts(telemetry.aggregate(),
                  {{C::kReaderAcquire, 10},
                   {C::kWriterAcquire, 7},
                   {C::kMutexAcquire, 7 * D::kWlPerWriterPassage}});
}

TYPED_TEST(RwLockConformance, DetachingStopsAllCounting) {
    using D = TypeParam;
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    passages<D>(*lock, 1, 1);
    const TelemetrySnapshot before = telemetry.aggregate();
    EXPECT_EQ(before.count(C::kReaderAcquire), 1u);
    lock->attach_telemetry(nullptr);
    // Enough passages that an attached lock would sample every histogram,
    // a reader that waits (and may park) behind a writer, and aborts.
    passages<D>(*lock, 2 * LockTelemetry::kSampleEvery,
                2 * LockTelemetry::kSampleEvery);
    D::lock(*lock, 0);
    std::thread reader([&] {
        D::lock_shared(*lock, 0);
        D::unlock_shared(*lock, 0);
    });
    std::this_thread::sleep_for(20ms);
    if constexpr (D::kAbortable) {
        EXPECT_FALSE(D::try_lock_shared(*lock, 1));
    }
    D::unlock(*lock, 0);
    reader.join();
    const TelemetrySnapshot after = telemetry.aggregate();
    EXPECT_EQ(after.counters, before.counters);
    EXPECT_EQ(after.histos, before.histos);
}

// Attaching a sink and detaching it are pointer stores: neither allocates,
// and only a thread's first report to the sink does (its slab).
TYPED_TEST(RwLockConformance, AttachingAndDetachingAllocateNothing) {
    using D = TypeParam;
    LockTelemetry telemetry;
    auto lock = D::make();
    std::uint64_t before = g_allocations.load();
    lock->attach_telemetry(&telemetry);
    lock->attach_telemetry(nullptr);
    lock->attach_telemetry(&telemetry);
    EXPECT_EQ(g_allocations.load(), before);
    passages<D>(*lock, 1, 1);
    EXPECT_EQ(telemetry.slabs(), 1u);
    EXPECT_GT(g_allocations.load(), before);
    before = g_allocations.load();
    lock->attach_telemetry(nullptr);
    EXPECT_EQ(g_allocations.load(), before);
}

TYPED_TEST(RwLockConformance, ReaderParkedBehindAWriterIsCountedOnce) {
    using D = TypeParam;
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    D::lock(*lock, 0);
    std::thread reader([&] {
        D::lock_shared(*lock, 0);
        D::unlock_shared(*lock, 0);
    });
    EXPECT_TRUE(await_park(telemetry));
    D::unlock(*lock, 0);
    reader.join();
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(C::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(C::kReaderContended), 1u);
    EXPECT_EQ(snap.count(C::kWriterAcquire), 1u);
    EXPECT_EQ(snap.count(C::kWriterContended), 0u);
    EXPECT_EQ(snap.count(C::kReaderAbort), 0u);
    // A wait parks only after it reached the yield stage, and the
    // writer's release found the reader parked.
    EXPECT_GE(snap.count(C::kBackoffYield), 1u);
    EXPECT_GE(snap.count(C::kFutexWake), 1u);
}

TYPED_TEST(RwLockConformance, WriterParkedBehindAReaderIsCountedOnce) {
    using D = TypeParam;
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    D::lock_shared(*lock, 0);
    std::thread writer([&] {
        D::lock(*lock, 0);
        D::unlock(*lock, 0);
    });
    EXPECT_TRUE(await_park(telemetry));
    D::unlock_shared(*lock, 0);
    writer.join();
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(C::kWriterAcquire), 1u);
    EXPECT_EQ(snap.count(C::kWriterContended), 1u);
    EXPECT_EQ(snap.count(C::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(C::kReaderContended), 0u);
    EXPECT_EQ(snap.count(C::kWriterAbort), 0u);
    // WL was free: the writer waited for the reader, not for WL.
    EXPECT_EQ(snap.count(C::kMutexAcquire), D::kWlPerWriterPassage);
    EXPECT_EQ(snap.count(C::kMutexContended), 0u);
    EXPECT_GE(snap.count(C::kBackoffYield), 1u);
    EXPECT_GE(snap.count(C::kFutexWake), 1u);
}

TYPED_TEST(RwLockConformance, EntryExitAndAbortLatenciesAreSampled) {
    using D = TypeParam;
    using H = TelemetryHisto;
    constexpr std::uint32_t kEvery = LockTelemetry::kSampleEvery;
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    // 2 * kEvery consecutive calls sample exactly 2, whatever the phase
    // of this thread's sampling sequences.
    passages<D>(*lock, 2 * kEvery, 2 * kEvery);
    auto snap = telemetry.aggregate();
    for (const H h : {H::kReaderEntry, H::kReaderExit, H::kWriterEntry,
                      H::kWriterExit}) {
        EXPECT_EQ(snap.samples(h), 2u) << to_string(h);
    }
    // Successful acquisitions, WL climbs included, time no abort.
    EXPECT_EQ(snap.samples(H::kAbortLatency), 0u);
    if constexpr (D::kAbortable) {
        // An abort redirects its entry stopwatch to kAbortLatency.
        D::lock(*lock, 0);
        for (std::uint32_t i = 0; i < 2 * kEvery; ++i) {
            EXPECT_FALSE(D::try_lock_shared(*lock, 1));
        }
        D::unlock(*lock, 0);
        D::lock_shared(*lock, 1);
        for (std::uint32_t i = 0; i < 2 * kEvery; ++i) {
            EXPECT_FALSE(D::try_lock(*lock, 0));
        }
        D::unlock_shared(*lock, 1);
        snap = telemetry.aggregate();
        EXPECT_EQ(snap.count(C::kReaderAbort), 2u * kEvery);
        EXPECT_EQ(snap.count(C::kWriterAbort), 2u * kEvery);
        EXPECT_EQ(snap.samples(H::kAbortLatency), 4u);
    }
}

TYPED_TEST(RwLockConformance, BadWriterIdsAreRefusedBeforeTheyTouchTheLock) {
    using D = TypeParam;
    LockTelemetry telemetry;
    auto lock = D::make();
    lock->attach_telemetry(&telemetry);
    passages<D>(*lock, 0, 1);
    if constexpr (D::kWriters != 0) {
        EXPECT_THROW(D::make(0), std::invalid_argument);
        EXPECT_THROW(D::bad_lock(*lock), typename D::BadId);
    }
    // The refused lock drew no ticket: the next writer gets in.
    D::lock(*lock, 0);
    if constexpr (D::kWriters != 0) {
        EXPECT_THROW(D::bad_unlock(*lock), typename D::BadId);
    }
    // The refused unlock did not open the lock to readers.
    std::atomic<bool> entered{false};
    std::thread reader([&] {
        D::lock_shared(*lock, 0);
        entered.store(true);
        D::unlock_shared(*lock, 0);
    });
    std::this_thread::sleep_for(50ms);
    EXPECT_FALSE(entered.load());
    D::unlock(*lock, 0);
    reader.join();
    EXPECT_TRUE(entered.load());
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(C::kWriterAcquire), 2u);
    EXPECT_EQ(snap.count(C::kWriterAbort), 0u);
    EXPECT_EQ(snap.count(C::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(C::kMutexAcquire), 2 * D::kWlPerWriterPassage);
}

// ---- AfLock and TournamentMutex aborts -------------------------------------

TEST(TelemetryTest, AbortsAreCounted) {
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);

    // Writer in its critical section => RSIG is WAIT => a reader try fails.
    lock.lock(0);
    EXPECT_FALSE(lock.try_lock_shared(0));
    EXPECT_FALSE(lock.try_lock_shared(1));
    lock.unlock(0);

    // Reader present => a writer try fails (rolls the passage forward).
    lock.lock_shared(0);
    EXPECT_FALSE(lock.try_lock(0));
    lock.unlock_shared(0);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 2u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 1u);
    // Failed acquisitions are not acquisitions.
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
}

TEST(TelemetryTest, AttachingATournamentMutexAllocatesNothing) {
    LockTelemetry telemetry;
    TournamentMutex mx(4);
    const std::uint64_t before = g_allocations.load();
    mx.attach_telemetry(&telemetry);
    mx.attach_telemetry(nullptr);
    mx.attach_telemetry(&telemetry);
    EXPECT_EQ(g_allocations.load(), before);
    // Aborted and successful climbs of the attached mutex are counted.
    mx.lock(0);
    EXPECT_FALSE(mx.try_lock(3));
    mx.unlock(0);
    mx.lock(3);
    mx.unlock(3);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire), 2u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbort), 1u);
    const std::uint64_t attached = g_allocations.load();
    mx.attach_telemetry(nullptr);
    EXPECT_EQ(g_allocations.load(), attached);
}

// A sink that nothing reports to allocates no slab, whether or not a lock
// holds it; aggregate() then sums only the (zero) shared slab.
TEST(TelemetryTest, SinkNothingReportsToHoldsNoSlab) {
    LockTelemetry telemetry;
    AfLock lock(4, 2, 2);
    lock.attach_telemetry(&telemetry);
    lock.attach_telemetry(nullptr);
    lock.lock_shared(0);
    lock.unlock_shared(0);
    lock.lock(0);
    lock.unlock(0);
    EXPECT_EQ(telemetry.slabs(), 0u);
    const TelemetrySnapshot snap = telemetry.aggregate();
    EXPECT_EQ(snap.counters, TelemetrySnapshot{}.counters);
    EXPECT_EQ(snap.histos, TelemetrySnapshot{}.histos);
}

// Threads kSlots indices apart share a slot. Their first reports race to
// install its slab; the loser deletes its copy, and both count into the
// winner's. The threads in between only take the indices that separate
// the two, one at a time.
TEST(TelemetryTest, ThreadsSharingASlotShareOneSlab) {
    constexpr std::uint64_t kReports = 1000;
    LockTelemetry indexer;  // Reported to only to take thread indices.
    LockTelemetry telemetry;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    const auto reporter = [&] {
        indexer.count(C::kReaderAcquire);
        ready.fetch_add(1);
        while (!go.load()) {
            std::this_thread::yield();
        }
        for (std::uint64_t r = 0; r < kReports; ++r) {
            telemetry.count(C::kWriterAcquire);
        }
    };
    std::thread first(reporter);
    while (ready.load() < 1) {
        std::this_thread::yield();
    }
    for (std::uint32_t i = 1; i < LockTelemetry::kSlots; ++i) {
        std::thread([&] { indexer.count(C::kReaderAcquire); }).join();
    }
    std::thread second(reporter);
    while (ready.load() < 2) {
        std::this_thread::yield();
    }
    go = true;
    first.join();
    second.join();
    EXPECT_EQ(indexer.slabs(), LockTelemetry::kSlots);
    EXPECT_EQ(telemetry.slabs(), 1u);
    EXPECT_EQ(telemetry.aggregate().count(C::kWriterAcquire), 2 * kReports);
}

// A thread whose slab cannot be allocated counts into the sink's shared
// slab: the lock operation does not throw, every count stays exact, and
// the thread's next report after the allocator recovers installs its slab.
TEST(TelemetryTest, FailedSlabAllocationCountsIntoTheSharedSlab) {
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);
    g_fail_slab_allocation = true;
    EXPECT_NO_THROW({
        lock.lock_shared(0);
        lock.unlock_shared(0);
        lock.lock(0);
        lock.unlock(0);
    });
    g_fail_slab_allocation = false;
    EXPECT_EQ(telemetry.slabs(), 0u);
    EXPECT_EQ(telemetry.aggregate().count(C::kReaderAcquire), 1u);

    lock.lock_shared(0);
    lock.unlock_shared(0);
    EXPECT_EQ(telemetry.slabs(), 1u);
    expect_counts(telemetry.aggregate(), {{C::kReaderAcquire, 2},
                                          {C::kWriterAcquire, 1},
                                          {C::kMutexAcquire, 1}});
}

// Each reporting thread installs its own slab on its first report: four
// threads, four slabs, and the totals stay exact.
TEST(TelemetryTest, FourReportingThreadsInstallFourSlabs) {
    constexpr std::uint32_t kThreads = 4;
    constexpr std::uint64_t kReports = 1000;
    LockTelemetry telemetry;
    std::vector<std::thread> threads;
    for (std::uint32_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            for (std::uint64_t r = 0; r < kReports; ++r) {
                telemetry.count(TelemetryCounter::kReaderAcquire);
                telemetry.record_ns(TelemetryHisto::kReaderEntry, r);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(telemetry.slabs(), kThreads);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire),
              kThreads * kReports);
    EXPECT_EQ(snap.samples(TelemetryHisto::kReaderEntry),
              kThreads * kReports);
}

TEST(TelemetryTest, AbortLatencyIsSampled) {
    LockTelemetry telemetry;
    TournamentMutex mx(2);
    mx.attach_telemetry(&telemetry);
    mx.lock(0);
    // The abort stopwatch arms on kAbortLatency's thread-local sampling
    // sequence (period kSampleEvery), whose phase other tests in this
    // thread may have advanced: 2 * kSampleEvery consecutive aborts
    // guarantee at least one sampled record wherever the phase sits.
    for (std::uint32_t i = 0; i < 2 * LockTelemetry::kSampleEvery; ++i) {
        EXPECT_FALSE(mx.try_lock(1));
    }
    mx.unlock(0);
    const auto snap = telemetry.aggregate();
    EXPECT_GE(snap.samples(TelemetryHisto::kAbortLatency), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbort),
              2u * LockTelemetry::kSampleEvery);
}

// 8 concurrent threads, exact totals. Runs under TSan in CI: the per-slot
// relaxed atomics must be a race-free way to share slabs, and aggregate()
// must be safe to call while the workload is still running (exercised via
// the mid-flight sum below -- its value is unasserted; TSan asserts the
// absence of races).
TEST(TelemetryTest, MultiThreadedExactTotals) {
    constexpr std::uint32_t kReaders = 6;
    constexpr std::uint32_t kWriters = 2;
    constexpr int kPassages = 400;

    LockTelemetry telemetry;
    AfLock lock(kReaders, kWriters, 2);
    lock.attach_telemetry(&telemetry);

    std::vector<std::thread> threads;
    threads.reserve(kReaders + kWriters);
    for (std::uint32_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
            for (int i = 0; i < kPassages; ++i) {
                lock.lock_shared(r);
                lock.unlock_shared(r);
                if (i % 16 == 0) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::uint32_t w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int i = 0; i < kPassages; ++i) {
                lock.lock(w);
                lock.unlock(w);
                std::this_thread::yield();
            }
        });
    }
    // Concurrent aggregation is part of the contract.
    const auto midflight = telemetry.aggregate();
    (void)midflight;
    for (auto& t : threads) {
        t.join();
    }

    // Every thread reported, each from its own slot index.
    EXPECT_EQ(telemetry.slabs(), kReaders + kWriters);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire),
              static_cast<std::uint64_t>(kReaders) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire),
              static_cast<std::uint64_t>(kWriters) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire),
              static_cast<std::uint64_t>(kWriters) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 0u);
    // Contended counts are schedule-dependent; they only must not exceed
    // the acquisition counts they qualify.
    EXPECT_LE(snap.count(TelemetryCounter::kReaderContended),
              snap.count(TelemetryCounter::kReaderAcquire));
    EXPECT_LE(snap.count(TelemetryCounter::kWriterContended),
              snap.count(TelemetryCounter::kWriterAcquire));
}

TEST(TelemetryTest, HistogramBucketsAndQuantiles) {
    LockTelemetry telemetry;
    // 8 samples at ~2^4 ns, 2 at ~2^10 ns: p50 lands in the low bucket,
    // p90/max in the high one. Quantiles report bucket upper bounds.
    for (int i = 0; i < 8; ++i) {
        telemetry.record_ns(TelemetryHisto::kReaderEntry, 16);
    }
    telemetry.record_ns(TelemetryHisto::kReaderEntry, 1024);
    telemetry.record_ns(TelemetryHisto::kReaderEntry, 1500);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.samples(TelemetryHisto::kReaderEntry), 10u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 0.50), 32u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 0.90), 2048u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 1.0), 2048u);
    EXPECT_EQ(snap.samples(TelemetryHisto::kWriterEntry), 0u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kWriterEntry, 0.5), 0u);
}

/// dist::SessionStats's bucket rule before log2_bucket, with its bound
/// tested first (it used to shift 1 by 64 for ns >= 2^63 before testing).
std::uint32_t shift_loop_bucket(std::uint64_t ns, std::uint32_t buckets) {
    std::uint32_t b = 0;
    while (b + 1 < buckets && (std::uint64_t{1} << (b + 1)) <= ns) {
        ++b;
    }
    return b;
}

TEST(Log2Bucket, MatchesTheShiftLoopAroundEveryPowerOfTwo) {
    std::vector<std::uint64_t> inputs{0, 1, ~std::uint64_t{0}};
    for (std::uint32_t k = 0; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        inputs.insert(inputs.end(), {p - 1, p, p + 1});
    }
    // LockTelemetry's bucket count and dist::kLatBuckets.
    for (const std::uint32_t buckets : {kTelemetryBuckets, 64u}) {
        for (const std::uint64_t ns : inputs) {
            EXPECT_EQ(log2_bucket(ns, buckets), shift_loop_bucket(ns, buckets))
                << ns << " ns, " << buckets << " buckets";
        }
    }
}

TEST(TelemetryTest, SnapshotSubtractionGivesIntervalDeltas) {
    LockTelemetry telemetry;
    telemetry.count(TelemetryCounter::kReaderAcquire, 5);
    auto before = telemetry.aggregate();
    telemetry.count(TelemetryCounter::kReaderAcquire, 3);
    auto after = telemetry.aggregate();
    after -= before;
    EXPECT_EQ(after.count(TelemetryCounter::kReaderAcquire), 3u);
}

TEST(TelemetryTest, BackoffStageNoting) {
    LockTelemetry telemetry;
    Backoff fresh;  // Never paused: no transition happened.
    telemetry.note_backoff(fresh);

    Backoff yielded;
    for (int i = 0; i <= Backoff::spin_limit(); ++i) {
        yielded.pause();
    }
    telemetry.note_backoff(yielded);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kBackoffYield), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kBackoffSleep), 0u);
}

// ---- Parking counters ------------------------------------------------------

TEST(TelemetryTest, ParkTimeoutCountsAreExact) {
    // Single-threaded and fully deterministic: nobody wakes the spot, so
    // the timed park must run to its deadline. One kernel wait per park
    // call (spurious EINTR wakes re-park and re-count), exactly one abort
    // for the final timeout, zero wakes.
    LockTelemetry telemetry;
    ParkingSpot spot;
    Deadline deadline = Deadline::after(std::chrono::milliseconds(20));
    std::uint64_t parks = 0;
    ParkResult r;
    do {
        r = spot.park(deadline, &telemetry, [] { return false; });
        ++parks;
    } while (r == ParkResult::kUnparked);
    EXPECT_EQ(r, ParkResult::kTimedOut);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWait), parks);
    EXPECT_EQ(snap.count(TelemetryCounter::kParkAbort), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWake), 0u);
}

TEST(TelemetryTest, WakeIsCountedWhenAWaiterIsParked) {
    // wake_all only counts when it observes a registered waiter. A round
    // where the waiter demonstrably reached the kernel (it recorded a
    // futex wait) must therefore have counted exactly one wake. The first
    // round virtually always parks; 100 attempts bound the loop.
    for (int round = 0; round < 100; ++round) {
        LockTelemetry waiter_t;
        LockTelemetry waker_t;
        ParkingSpot spot;
        std::atomic<bool> flag{false};
        std::thread waiter([&] {
            Deadline never = Deadline::infinite();
            while (!flag.load()) {
                spot.park(never, &waiter_t, [&] { return flag.load(); });
            }
        });
        while (spot.waiters() == 0) {
            std::this_thread::yield();
        }
        flag.store(true);
        spot.wake_all(&waker_t);
        waiter.join();
        const auto ws = waiter_t.aggregate();
        const auto ks = waker_t.aggregate();
        if (ws.count(TelemetryCounter::kFutexWait) >= 1 &&
            ks.count(TelemetryCounter::kFutexWake) == 1) {
            EXPECT_EQ(ws.count(TelemetryCounter::kParkAbort), 0u);
            return;
        }
    }
    FAIL() << "no round ever parked-and-woke; parking path likely broken";
}

TEST(TelemetryTest, ContendedTimedReaderParksAndAbortsExactlyOnce) {
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);
    lock.lock(0);  // RSIG = WAIT: the timed reader below must block.
    std::thread reader([&] {
        // 500ms: ample for the backoff to escalate spin -> yield -> park
        // even under TSan, then the parked wait times out on its own.
        EXPECT_FALSE(
            lock.try_lock_shared_for(1, std::chrono::milliseconds(500)));
    });
    reader.join();
    lock.unlock(0);
    const auto snap = telemetry.aggregate();
    EXPECT_GE(snap.count(TelemetryCounter::kFutexWait), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kParkAbort), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 1u);
    // The reader was gone before the writer released, and the writer
    // acquired uncontended: no wake was ever due.
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWake), 0u);
}

}  // namespace
