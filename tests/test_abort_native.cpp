// Abortable/timed acquisition tests for the native tier: AfLock's
// try_lock(_shared)(_for) family, the TournamentMutex abortable climb, the
// AfSharedMutex timed facade, AfLock's built-in misuse assertions, and the
// harness Watchdog.
//
// The load-bearing property throughout: an aborted acquisition rolls back
// every announcement, so survivors retain Theorem 18's guarantees --
// checked here by finishing every scenario with a full single-threaded
// lock/unlock in both modes, and by a stress test in which a "doomed"
// cohort aborts continuously while a surviving cohort must complete a fixed
// workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/watchdog.hpp"
#include "native/af_lock.hpp"
#include "native/mutex.hpp"
#include "native/shared_mutex.hpp"

namespace rwr::native {
namespace {

using namespace std::chrono_literals;
using harness::StageBoard;
using harness::Watchdog;

/// The lock must be fully functional after the scenario: one passage in
/// each mode, single-threaded.
void expect_lock_intact(AfLock& lock) {
    lock.lock(0);
    lock.unlock(0);
    lock.lock_shared(0);
    ASSERT_FALSE(lock.try_lock(0));  // Reader present: writer try fails.
    lock.unlock_shared(0);
    lock.lock(0);
    lock.unlock(0);
}

// ---- TournamentMutex -------------------------------------------------------

TEST(TournamentMutexAbort, TryLockFailsWhileHeldAndRollsBack) {
    TournamentMutex mx(4);
    mx.lock(1);
    EXPECT_FALSE(mx.try_lock(0));
    EXPECT_FALSE(mx.try_lock_for(2, 20ms));
    mx.unlock(1);
    // The aborted climbs must have left no residue: any slot can lock.
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_TRUE(mx.try_lock(s));
        mx.unlock(s);
    }
}

TEST(TournamentMutexAbort, TryLockSucceedsWhenFree) {
    TournamentMutex mx(4);
    EXPECT_TRUE(mx.try_lock(3));
    EXPECT_FALSE(mx.try_lock(0));
    mx.unlock(3);
    EXPECT_TRUE(mx.try_lock_for(0, 5ms));
    mx.unlock(0);
}

TEST(TournamentMutexAbort, TimedLockAcquiresOnceReleased) {
    // hours::max() lies past steady_clock's range: it must wait like an
    // untimed lock, not fail at once.
    const auto check = [](auto timeout) {
        TournamentMutex mx(2);
        mx.lock(0);
        std::atomic<bool> got{false};
        std::thread t([&] { got.store(mx.try_lock_for(1, timeout)); });
        std::this_thread::sleep_for(20ms);
        mx.unlock(0);
        t.join();
        ASSERT_TRUE(got.load());
        mx.unlock(1);
    };
    check(2s);
    check(std::chrono::hours::max());
}

// ---- AfLock reader paths ---------------------------------------------------

TEST(AfLockAbort, ReaderTrySucceedsWithoutWriter) {
    AfLock lock(4, 2, 2);
    EXPECT_TRUE(lock.try_lock_shared(0));
    EXPECT_TRUE(lock.try_lock_shared(1));  // Concurrent Entering.
    lock.unlock_shared(0);
    lock.unlock_shared(1);
    expect_lock_intact(lock);
}

TEST(AfLockAbort, ReaderTryFailsWhileWriterHoldsAndRollsBack) {
    AfLock lock(4, 2, 2);
    lock.lock(0);
    // RSIG = WAIT: both the pure try and the timed try must fail.
    EXPECT_FALSE(lock.try_lock_shared(1));
    EXPECT_FALSE(lock.try_lock_shared_for(2, 30ms));
    lock.unlock(0);
    // Rollback must leave C/W consistent: everyone can pass again.
    for (std::uint32_t r = 0; r < 4; ++r) {
        lock.lock_shared(r);
    }
    for (std::uint32_t r = 0; r < 4; ++r) {
        lock.unlock_shared(r);
    }
    expect_lock_intact(lock);
}

TEST(AfLockAbort, TimedReaderAcquiresOnceWriterLeaves) {
    // hours::max() lies past steady_clock's range: it must wait like an
    // untimed lock_shared, not fail at once.
    const auto check = [](auto timeout) {
        AfLock lock(2, 1, 1);
        lock.lock(0);
        std::atomic<bool> got{false};
        std::thread t(
            [&] { got.store(lock.try_lock_shared_for(0, timeout)); });
        std::this_thread::sleep_for(20ms);
        lock.unlock(0);
        t.join();
        ASSERT_TRUE(got.load());
        lock.unlock_shared(0);
        expect_lock_intact(lock);
    };
    check(2s);
    check(std::chrono::hours::max());
}

// ---- AfLock writer paths ---------------------------------------------------

TEST(AfLockAbort, WriterTryFailsWhileReaderHoldsAndLockStaysAcquirable) {
    AfLock lock(4, 2, 2);
    lock.lock_shared(0);
    EXPECT_FALSE(lock.try_lock(0));
    EXPECT_FALSE(lock.try_lock_for(1, 30ms));
    // Concurrent Entering must survive the aborted writer passages.
    EXPECT_TRUE(lock.try_lock_shared(1));
    lock.unlock_shared(1);
    lock.unlock_shared(0);
    expect_lock_intact(lock);
}

TEST(AfLockAbort, WriterTryFailsWhileWriterHolds) {
    AfLock lock(2, 2, 1);
    lock.lock(0);
    EXPECT_FALSE(lock.try_lock(1));
    EXPECT_FALSE(lock.try_lock_for(1, 20ms));
    lock.unlock(0);
    expect_lock_intact(lock);
}

TEST(AfLockAbort, TimedWriterAcquiresOnceReaderLeaves) {
    AfLock lock(2, 1, 1);
    lock.lock_shared(1);
    std::atomic<bool> got{false};
    std::thread t([&] { got.store(lock.try_lock_for(0, 2s)); });
    std::this_thread::sleep_for(20ms);
    lock.unlock_shared(1);
    t.join();
    ASSERT_TRUE(got.load());
    lock.unlock(0);
    expect_lock_intact(lock);
}

TEST(AfLockAbort, AbortingReaderDoesNotStrandTheWriter) {
    // A writer blocks on a group whose only announced reader then aborts;
    // the abort's exit-section signalling must wake the writer (the
    // line 12-23 handshake), not strand it.
    AfLock lock(2, 1, 1);
    std::atomic<bool> writer_done{false};
    lock.lock_shared(0);  // C[0] = 1: the writer will have to wait.
    std::thread writer([&] {
        lock.lock(0);
        lock.unlock(0);
        writer_done.store(true);
    });
    // Let the writer reach its drain loop, then have a second reader try
    // with a short deadline (it will see WAIT or PREENTRY) and abort or
    // enter; then release the pinning reader.
    std::this_thread::sleep_for(20ms);
    if (lock.try_lock_shared_for(1, 1ms)) {
        lock.unlock_shared(1);
    }
    lock.unlock_shared(0);
    writer.join();
    EXPECT_TRUE(writer_done.load());
    expect_lock_intact(lock);
}

// ---- Timed-acquisition overshoot regression --------------------------------

// Parked timed waits carry the deadline into the kernel as an *absolute*
// timeout, so a blocked timed acquisition returns when its clock runs out --
// not when the holder eventually releases, and not quantised to backoff
// sleep slices. The holder here keeps the lock until both waiters have
// returned: a waiter that ignores its deadline while parked would deadlock
// the join (caught loudly by the CTest TIMEOUT), and the elapsed-time bound
// documents the tolerated overshoot. Bounds are generous on purpose: this
// test runs under TSan on loaded 1-core CI hosts.
TEST(AfLockAbort, TimedWaitsDoNotOvershootWhileParked) {
    using Clock = std::chrono::steady_clock;
    constexpr auto kTimeout = 60ms;
    constexpr auto kMaxOvershoot = 2s;
    AfLock lock(2, 2, 1);
    lock.lock(0);  // RSIG = WAIT and WL held: both timed paths must block.
    std::atomic<long> reader_ms{-1};
    std::atomic<long> writer_ms{-1};
    std::thread reader([&] {
        const auto t0 = Clock::now();
        EXPECT_FALSE(lock.try_lock_shared_for(0, kTimeout));
        reader_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now() - t0)
                            .count());
    });
    std::thread writer([&] {
        const auto t0 = Clock::now();
        EXPECT_FALSE(lock.try_lock_for(1, kTimeout));
        writer_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now() - t0)
                            .count());
    });
    reader.join();
    writer.join();
    lock.unlock(0);  // Only now: the waiters timed out on their own clocks.
    for (const auto& ms : {&reader_ms, &writer_ms}) {
        EXPECT_GE(ms->load(), 60);
        EXPECT_LT(ms->load(),
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      kTimeout + kMaxOvershoot)
                      .count());
    }
    expect_lock_intact(lock);
}

TEST(TournamentMutexAbort, TimedClimbDoesNotOvershootWhileParked) {
    using Clock = std::chrono::steady_clock;
    TournamentMutex mx(4);
    mx.lock(0);
    const auto t0 = Clock::now();
    EXPECT_FALSE(mx.try_lock_for(2, 60ms));
    const auto elapsed = Clock::now() - t0;
    mx.unlock(0);  // Released only after the waiter gave up by itself.
    EXPECT_GE(elapsed, 60ms);
    EXPECT_LT(elapsed, 60ms + 2s);
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_TRUE(mx.try_lock(s));
        mx.unlock(s);
    }
}

// ---- Misuse detection ------------------------------------------------------

TEST(AfLockMisuse, DoubleSharedReleaseThrowsBeforeCorruptingC) {
    AfLock lock(2, 1, 1);
    lock.lock_shared(0);
    lock.unlock_shared(0);
    EXPECT_THROW(lock.unlock_shared(0), std::logic_error);
    expect_lock_intact(lock);  // C[0] was not driven negative.
}

TEST(AfLockMisuse, UnlockWithoutHoldingWlThrows) {
    AfLock lock(2, 2, 1);
    EXPECT_THROW(lock.unlock(0), std::logic_error);
    lock.lock(0);
    EXPECT_THROW(lock.unlock(1), std::logic_error);  // Wrong writer id.
    lock.unlock(0);
    expect_lock_intact(lock);
}

// Writer 0's lock() waits at line 14 holding WL: its id does not hold the
// lock yet, so an unlock(0) from another thread throws before it touches
// the lock, and the waiting writer still enters once the reader leaves.
TEST(AfLockMisuse, UnlockOfAWriterStillWaitingThrows) {
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);
    lock.lock_shared(0);  // C[0] = 1: the writer waits at line 14.
    std::atomic<bool> entered{false};
    std::atomic<bool> writer_threw{false};
    std::thread writer([&] {
        try {
            if (lock.try_lock_for(0, 2s)) {
                entered.store(true);
                lock.unlock(0);
            }
        } catch (const std::logic_error&) {
            writer_threw.store(true);
        }
    });
    // Only the writer can park here.
    const auto parked = [&] {
        return telemetry.aggregate().count(TelemetryCounter::kFutexWait) > 0;
    };
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!parked() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(parked());
    EXPECT_THROW(lock.unlock(0), std::logic_error);
    EXPECT_FALSE(entered.load());
    lock.unlock_shared(0);
    writer.join();
    EXPECT_TRUE(entered.load());
    EXPECT_FALSE(writer_threw.load());
    expect_lock_intact(lock);
}

TEST(AfLockMisuse, RecursiveUseOfOneIdThrows) {
    AfLock lock(2, 1, 1);
    lock.lock_shared(0);
    EXPECT_THROW(lock.lock_shared(0), std::logic_error);
    lock.unlock_shared(0);
    lock.lock(0);
    EXPECT_THROW(lock.lock(0), std::logic_error);
    lock.unlock(0);
}

TEST(AfLockMisuse, FailedTryLeavesIdReusable) {
    AfLock lock(2, 1, 1);
    lock.lock(0);
    EXPECT_FALSE(lock.try_lock_shared(0));
    EXPECT_FALSE(lock.try_lock_shared(0));  // Guard must have been released.
    EXPECT_FALSE(lock.try_lock_shared_for(0, 1ms));
    EXPECT_FALSE(lock.try_lock_shared_for(0, 1ms));
    lock.unlock(0);
    EXPECT_TRUE(lock.try_lock_shared(0));
    // Reader 0 holds the CS, so the writer's timed entry must give up.
    EXPECT_FALSE(lock.try_lock_for(0, 1ms));
    EXPECT_FALSE(lock.try_lock_for(0, 1ms));
    lock.unlock_shared(0);
    EXPECT_TRUE(lock.try_lock(0));
    lock.unlock(0);
}

// Reader misuse is caught by the C[i] leaf CAS itself.

/// Reader id 0 is held by another thread: every acquisition of it here
/// must throw.
void expect_reader_id_reuse_throws(AfLock& lock) {
    EXPECT_THROW(lock.lock_shared(0), std::logic_error);
    EXPECT_THROW(lock.try_lock_shared(0), std::logic_error);
    EXPECT_THROW(lock.try_lock_shared_for(0, 1ms), std::logic_error);
}

TEST(AfLockReaderMisuse, IdHeldOnAnotherThreadThrows) {
    AfLock lock(4, 1, 2);
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    std::thread a([&] {
        lock.lock_shared(0);
        holding.store(true);
        while (!release.load()) {
            std::this_thread::yield();
        }
        lock.unlock_shared(0);
    });
    while (!holding.load()) {
        std::this_thread::yield();
    }
    expect_reader_id_reuse_throws(lock);
    EXPECT_FALSE(lock.try_lock(0));  // a is still in the CS.
    release.store(true);
    a.join();
    // The failed calls left C[g] alone: a's exit took it back to 0.
    EXPECT_TRUE(lock.try_lock(0));
    lock.unlock(0);
    expect_lock_intact(lock);
}

TEST(AfLockReaderMisuse, IdParkedBehindAWriterThrows) {
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    AfLock lock(4, 1, 2);
    lock.attach_telemetry(&telemetry);
    lock.lock(0);  // RSIG = WAIT: reader 0 parks at line 36.
    std::atomic<bool> entered{false};
    std::thread a([&] {
        lock.lock_shared(0);
        entered.store(true);
        lock.unlock_shared(0);
    });
    // Only the reader can park here, and it parks holding C[g] and W[g].
    const auto parked = [&] {
        return telemetry.aggregate().count(TelemetryCounter::kFutexWait) > 0;
    };
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!parked() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(parked());
    if (parked()) {
        expect_reader_id_reuse_throws(lock);
    }
    EXPECT_FALSE(entered.load());
    lock.unlock(0);
    a.join();
    EXPECT_TRUE(entered.load());
    EXPECT_TRUE(lock.try_lock(0));
    lock.unlock(0);
    expect_lock_intact(lock);
}

// ---- AfSharedMutex facade --------------------------------------------------

TEST(AfSharedMutexTimed, TryAndTimedPathsInterop) {
    AfSharedMutex mtx(4, 2);
    {
        std::unique_lock lk(mtx);
        std::thread t([&] {
            EXPECT_FALSE(mtx.try_lock_shared());
            EXPECT_FALSE(mtx.try_lock_shared_for(5ms));
            EXPECT_FALSE(mtx.try_lock());
        });
        t.join();
    }
    {
        std::shared_lock lk(mtx, std::try_to_lock);
        ASSERT_TRUE(lk.owns_lock());
        std::thread t([&] {
            EXPECT_TRUE(mtx.try_lock_shared());
            mtx.unlock_shared();
            EXPECT_FALSE(mtx.try_lock_for(5ms));
        });
        t.join();
    }
    EXPECT_TRUE(mtx.try_lock());
    mtx.unlock();
}

/// Runs `attempt` on another thread, calls `release` 20 ms later, and
/// expects the attempt to have waited for it and succeeded.
template <class Attempt, class Release>
void expect_waits_then_acquires(Attempt attempt, Release release) {
    std::atomic<bool> got{false};
    std::thread t([&] { got.store(attempt()); });
    std::this_thread::sleep_for(20ms);
    release();
    t.join();
    EXPECT_TRUE(got.load());
}

TEST(AfSharedMutexTimed, TimeoutsPastTheClockRangeWait) {
    // Each timeout lies past steady_clock's range. Adding one to now()
    // used to overflow, and the call failed at once instead of waiting.
    const auto forever = std::chrono::steady_clock::time_point::max();
    AfSharedMutex mtx(4, 2);
    mtx.lock();
    expect_waits_then_acquires(
        [&] { return std::shared_lock(mtx, forever).owns_lock(); },
        [&] { mtx.unlock(); });
    mtx.lock_shared();
    expect_waits_then_acquires(
        [&] { return std::unique_lock(mtx, forever).owns_lock(); },
        [&] { mtx.unlock_shared(); });
    mtx.lock_shared();
    expect_waits_then_acquires(
        [&] {
            return std::unique_lock(mtx, std::chrono::hours::max())
                .owns_lock();
        },
        [&] { mtx.unlock_shared(); });
}

/// Holds `mtx` on another thread (`hold`, later `release`) while `attempts`
/// runs on this one. The holder gives up after 500 ms even if `attempts`
/// has not returned, so an attempt that waits for it acquires instead of
/// hanging.
template <class Hold, class Release, class Attempts>
void while_held_elsewhere(Hold hold, Release release, Attempts attempts) {
    std::atomic<bool> held{false};
    std::atomic<bool> done{false};
    std::thread holder([&] {
        hold();
        held.store(true);
        const auto give_up = std::chrono::steady_clock::now() + 500ms;
        while (!done.load() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(1ms);
        }
        release();
    });
    while (!held.load()) {
        std::this_thread::yield();
    }
    attempts();
    done.store(true);
    holder.join();
}

TEST(AfSharedMutexTimed, PastDeadlinesFailAtOnce) {
    // Each deadline has passed. Subtracting now() from either clock's
    // min() used to overflow into a far-future deadline, so the attempt
    // waited for the holder to leave and then acquired.
    using std::chrono::steady_clock;
    using std::chrono::system_clock;
    AfSharedMutex mtx(4, 2);
    const auto fails_at_once = [&](auto lock_with) {
        EXPECT_FALSE(lock_with(steady_clock::time_point::min()));
        EXPECT_FALSE(lock_with(system_clock::time_point::min()));
        EXPECT_FALSE(lock_with(steady_clock::now() - 1h));
        EXPECT_FALSE(lock_with(system_clock::now() - 1h));
    };
    while_held_elsewhere(
        [&] { mtx.lock(); }, [&] { mtx.unlock(); },
        [&] {
            fails_at_once([&](auto deadline) {
                return std::shared_lock(mtx, deadline).owns_lock();
            });
        });
    while_held_elsewhere(
        [&] { mtx.lock_shared(); }, [&] { mtx.unlock_shared(); },
        [&] {
            fails_at_once([&](auto deadline) {
                return std::unique_lock(mtx, deadline).owns_lock();
            });
        });
    EXPECT_TRUE(mtx.try_lock());
    mtx.unlock();
}

// ---- Watchdog --------------------------------------------------------------

TEST(WatchdogTest, DisarmedInTimeDoesNotFire) {
    StageBoard board(2);
    Watchdog::Options opts;
    opts.timeout = 5s;
    opts.dump = [&] { return board.dump(); };
    opts.on_timeout = [](const std::string&) {};
    Watchdog dog(opts);
    board.set(0, "working");
    dog.heartbeat();
    dog.disarm();
    EXPECT_FALSE(dog.fired());
}

TEST(WatchdogTest, FiresWithDumpOnMissedHeartbeats) {
    StageBoard board(2);
    board.set(0, "af.lock(writer 0) line 14");
    board.set(1, "af.lock_shared(reader 1) line 36");
    std::atomic<bool> fired{false};
    std::string report;
    std::mutex report_mu;
    Watchdog::Options opts;
    opts.timeout = 50ms;
    opts.poll = 5ms;
    opts.dump = [&] { return board.dump(); };
    opts.on_timeout = [&](const std::string& msg) {
        std::lock_guard<std::mutex> g(report_mu);
        report = msg;
        fired.store(true);
    };
    Watchdog dog(opts);
    while (!fired.load()) {
        std::this_thread::sleep_for(5ms);
    }
    dog.disarm();
    EXPECT_TRUE(dog.fired());
    std::lock_guard<std::mutex> g(report_mu);
    EXPECT_NE(report.find("line 14"), std::string::npos);
    EXPECT_NE(report.find("line 36"), std::string::npos);
}

// ---- Acceptance stress: doomed cohort aborts, survivors progress -----------

TEST(AbortStress, SurvivorsProgressWhileRandomCohortTimesOut) {
    // 3 surviving readers + 1 surviving writer must complete a fixed
    // workload while a doomed reader and a doomed writer hammer the lock
    // with tiny timeouts (aborting mid-acquisition constantly), under a
    // watchdog that turns any stranding into a diagnosed failure.
    constexpr std::uint32_t kReaders = 4, kWriters = 2;
    constexpr int kPassages = 300;
    AfLock lock(kReaders, kWriters, 2);
    StageBoard board(kReaders + kWriters);
    Watchdog::Options wopts;
    wopts.timeout = 60s;  // Generous: TSan on a 1-core box is slow.
    wopts.dump = [&] { return board.dump(); };
    Watchdog dog(wopts);

    std::atomic<bool> stop{false};
    std::atomic<int> survivor_reader_passages{0};
    std::atomic<int> survivor_writer_passages{0};
    std::atomic<long> aborts{0};
    std::int64_t guarded = 0;  // Written only under the write lock.

    std::vector<std::thread> threads;
    // Doomed reader (id 3) and doomed writer (id 1): tiny random timeouts.
    threads.emplace_back([&] {
        std::mt19937 rng(7);
        while (!stop.load()) {
            const auto timeout =
                std::chrono::microseconds(rng() % 200);
            board.set(3, "doomed reader: acquiring");
            if (lock.try_lock_shared_for(3, timeout)) {
                board.set(3, "doomed reader: cs");
                lock.unlock_shared(3);
            } else {
                aborts.fetch_add(1);
            }
            dog.heartbeat();
        }
        board.set(3, "doomed reader: done");
    });
    threads.emplace_back([&] {
        std::mt19937 rng(11);
        while (!stop.load()) {
            const auto timeout =
                std::chrono::microseconds(rng() % 200);
            board.set(kReaders + 1, "doomed writer: acquiring");
            if (lock.try_lock_for(1, timeout)) {
                board.set(kReaders + 1, "doomed writer: cs");
                ++guarded;
                lock.unlock(1);
            } else {
                aborts.fetch_add(1);
            }
            dog.heartbeat();
        }
        board.set(kReaders + 1, "doomed writer: done");
    });
    // Survivors: blocking acquisition, fixed workload.
    for (std::uint32_t r = 0; r < 3; ++r) {
        threads.emplace_back([&, r] {
            for (int i = 0; i < kPassages; ++i) {
                board.set(r, "survivor reader: acquiring");
                lock.lock_shared(r);
                board.set(r, "survivor reader: cs");
                lock.unlock_shared(r);
                survivor_reader_passages.fetch_add(1);
                dog.heartbeat();
            }
            board.set(r, "survivor reader: done");
        });
    }
    threads.emplace_back([&] {
        for (int i = 0; i < kPassages; ++i) {
            board.set(kReaders, "survivor writer: acquiring");
            lock.lock(0);
            board.set(kReaders, "survivor writer: cs");
            ++guarded;
            lock.unlock(0);
            survivor_writer_passages.fetch_add(1);
            dog.heartbeat();
        }
        board.set(kReaders, "survivor writer: done");
    });

    // Join survivors first: they must finish despite the doomed cohort.
    for (std::size_t i = 2; i < threads.size(); ++i) {
        threads[i].join();
    }
    // Uncontended acquisitions can beat even the tiny timeouts, so force at
    // least one observable abort: pin the write lock (survivor writer id 0
    // is free again) until a doomed acquisition times out against it.
    lock.lock(0);
    const long aborts_before = aborts.load();
    while (aborts.load() == aborts_before) {
        std::this_thread::sleep_for(1ms);
        dog.heartbeat();
    }
    lock.unlock(0);
    stop.store(true);
    threads[0].join();
    threads[1].join();
    dog.disarm();

    EXPECT_FALSE(dog.fired());
    EXPECT_EQ(survivor_reader_passages.load(), 3 * kPassages);
    EXPECT_EQ(survivor_writer_passages.load(), kPassages);
    // The doomed cohort really did abort mid-acquisition.
    EXPECT_GT(aborts.load(), 0);
    // And the lock still works.
    expect_lock_intact(lock);
}

}  // namespace
}  // namespace rwr::native
