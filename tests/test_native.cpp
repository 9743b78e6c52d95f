// Multi-threaded stress tests for the native (std::atomic) implementations:
// f-array counter, tournament mutex, AfLock (all f choices), baselines, and
// the AfSharedMutex facade with std::shared_lock / std::unique_lock.
//
// This host may have a single core; thread counts and iteration budgets are
// sized so the suite stays fast while still forcing real interleavings via
// yields in every spin loop.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/shared_mutex.hpp"

namespace rwr::native {
namespace {

TEST(NativeCounter, Sequential) {
    FArrayCounter c(4);
    c.add(0, 5);
    c.add(1, -2);
    c.add(3, 10);
    EXPECT_EQ(c.read(), 13);
}

TEST(NativeCounter, CapacityOne) {
    FArrayCounter c(1);
    c.add(0, 7);
    EXPECT_EQ(c.read(), 7);
}

TEST(NativeCounter, ConcurrentAdds) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 5000;
    FArrayCounter c(kThreads);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t] {
            for (int i = 0; i < kIters; ++i) {
                c.add(t, +1);
                if (i % 3 == 0) {
                    c.add(t, -1);
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    std::int64_t expected = 0;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        expected += kIters - (kIters + 2) / 3;
    }
    EXPECT_EQ(c.read(), expected);
}

TEST(NativeCounter, ReadNeverExceedsStartedAdds) {
    // Sample reads concurrently with unit increments: values must stay
    // within [0, total].
    FArrayCounter c(3);
    std::atomic<bool> stop{false};
    std::atomic<bool> bad{false};
    std::thread reader([&] {
        while (!stop.load()) {
            const auto v = c.read();
            if (v < 0 || v > 6000) {
                bad.store(true);
            }
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> adders;
    for (std::uint32_t t = 0; t < 2; ++t) {
        adders.emplace_back([&c, t] {
            for (int i = 0; i < 3000; ++i) {
                c.add(t, +1);
            }
        });
    }
    for (auto& th : adders) {
        th.join();
    }
    stop.store(true);
    reader.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(c.read(), 6000);
}

TEST(NativeTournamentMutex, ExclusionStress) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 3000;
    TournamentMutex mx(kThreads);
    std::int64_t plain_counter = 0;  // Deliberately non-atomic.
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                mx.lock(t);
                plain_counter += 1;  // Data race iff exclusion fails.
                mx.unlock(t);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plain_counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(NativeTournamentMutex, SlotValidation) {
    TournamentMutex mx(2);
    EXPECT_THROW(mx.lock(2), std::invalid_argument);
}

TEST(NativeMcsMutex, ExclusionStress) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 3000;
    McsMutex mx(kThreads);
    std::int64_t plain_counter = 0;  // Deliberately non-atomic.
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                mx.lock(t);
                plain_counter += 1;
                mx.unlock(t);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plain_counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(NativeMcsMutex, SlotValidation) {
    McsMutex mx(2);
    EXPECT_THROW(mx.lock(2), std::invalid_argument);
    EXPECT_THROW(McsMutex(0), std::invalid_argument);
}

struct RwInvariants {
    std::atomic<std::int32_t> readers{0};
    std::atomic<std::int32_t> writers{0};
    std::atomic<bool> violated{false};
    std::atomic<std::int32_t> max_readers{0};

    void reader_cs() {
        const auto r = readers.fetch_add(1) + 1;
        if (writers.load() != 0) {
            violated.store(true);
        }
        auto mr = max_readers.load();
        while (r > mr && !max_readers.compare_exchange_weak(mr, r)) {
        }
        std::this_thread::yield();
        readers.fetch_sub(1);
    }
    void writer_cs() {
        if (writers.fetch_add(1) != 0 || readers.load() != 0) {
            violated.store(true);
        }
        std::this_thread::yield();
        if (readers.load() != 0) {
            violated.store(true);
        }
        writers.fetch_sub(1);
    }
};

template <typename Lock>
void stress_rw(Lock& lock, std::uint32_t n, std::uint32_t m, int iters,
               RwInvariants* inv) {
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < n; ++r) {
        threads.emplace_back([&lock, r, iters, inv] {
            for (int i = 0; i < iters; ++i) {
                lock.lock_shared(r);
                inv->reader_cs();
                lock.unlock_shared(r);
            }
        });
    }
    for (std::uint32_t w = 0; w < m; ++w) {
        threads.emplace_back([&lock, w, iters, inv] {
            for (int i = 0; i < iters; ++i) {
                lock.lock(w);
                inv->writer_cs();
                lock.unlock(w);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
}

using NativeAfPoint = std::tuple<std::uint32_t /*n*/, std::uint32_t /*m*/,
                                 std::uint32_t /*f*/>;

class NativeAfStress : public ::testing::TestWithParam<NativeAfPoint> {};

/// Every valid (f <= n) point of the sweep.
std::vector<NativeAfPoint> native_af_grid() {
    std::vector<NativeAfPoint> grid;
    for (const std::uint32_t n : {2u, 4u}) {
        for (const std::uint32_t m : {1u, 2u}) {
            for (const std::uint32_t f : {1u, 2u, 4u}) {
                if (f <= n) {
                    grid.emplace_back(n, m, f);
                }
            }
        }
    }
    return grid;
}

TEST_P(NativeAfStress, MutualExclusionInvariants) {
    const auto [n, m, f] = GetParam();
    AfLock lock(n, m, f);
    RwInvariants inv;
    stress_rw(lock, n, m, 800, &inv);
    EXPECT_FALSE(inv.violated.load());
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeAfStress,
                         ::testing::ValuesIn(native_af_grid()));

TEST(NativeAfLock, ArgumentValidation) {
    EXPECT_THROW(AfLock(4, 1, 0), std::invalid_argument);
    EXPECT_THROW(AfLock(4, 1, 5), std::invalid_argument);
    EXPECT_THROW(AfLock(0, 1, 1), std::invalid_argument);
    AfLock ok(4, 1, 2);
    EXPECT_THROW(ok.lock_shared(4), std::invalid_argument);
    EXPECT_THROW(ok.lock(1), std::invalid_argument);
}

TEST(NativeAfLock, WriterSeesEveryReaderWhenFDoesNotDivideN) {
    // Reader id i uses slot i % k of group i / k, k = ceil(n / f). With
    // (n, f) = (10, 4) the last group is partial; with (9, 4) only three
    // groups exist. Every id must land in a real slot, and a writer must
    // see each one: the try fails until the last reader has left.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {10, 4}, {9, 4}, {7, 7}, {7, 1}};
    for (const auto& [n, f] : shapes) {
        AfLock lock(n, 1, f);
        EXPECT_EQ(lock.group_size(), (n + f - 1) / f);
        for (std::uint32_t id = 0; id < n; ++id) {
            ASSERT_TRUE(lock.try_lock_shared(id)) << "n=" << n << " id=" << id;
        }
        for (std::uint32_t id = 0; id < n; ++id) {
            EXPECT_FALSE(lock.try_lock(0))
                << "n=" << n << " f=" << f << ": readers " << id << ".."
                << n - 1 << " still in the CS";
            lock.unlock_shared(id);
        }
        EXPECT_TRUE(lock.try_lock(0)) << "n=" << n << " f=" << f;
        lock.unlock(0);
    }
}

TEST(NativeCentralized, MutualExclusionInvariants) {
    CentralizedRWLock lock;
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativeFaa, MutualExclusionInvariants) {
    FaaRWLock lock(2);
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativePhaseFair, MutualExclusionInvariants) {
    PhaseFairRWLock lock(2);
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativePhaseFair, WritersCompleteUnderReaderTraffic) {
    // Phase fairness, natively: with readers hammering, two writer threads
    // must still finish a fixed workload quickly.
    PhaseFairRWLock lock(2);
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                lock.lock_shared();
                std::this_thread::yield();
                lock.unlock_shared();
            }
        });
    }
    std::vector<std::thread> writers;
    std::atomic<int> writer_done{0};
    for (std::uint32_t w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < 400; ++i) {
                lock.lock(w);
                lock.unlock(w);
            }
            writer_done.fetch_add(1);
        });
    }
    for (auto& t : writers) {
        t.join();
    }
    stop.store(true);
    for (auto& t : readers) {
        t.join();
    }
    EXPECT_EQ(writer_done.load(), 2);
}

TEST(NativeAfLock, ReadersOverlapInTheCs) {
    // Concurrent Entering: with no writer present, a reader enters while
    // another reader is in the CS. Reader 0 stays in the CS on its own
    // thread until reader 1 (same group, k = 2) has tried to join it, so
    // the overlap does not depend on how the threads are scheduled.
    AfLock lock(4, 1, 2);
    std::atomic<std::int32_t> in{0};
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        lock.lock_shared(0);
        in.fetch_add(1);
        holding.store(true);
        while (!release.load()) {
            std::this_thread::yield();
        }
        in.fetch_sub(1);
        lock.unlock_shared(0);
    });
    while (!holding.load()) {
        std::this_thread::yield();
    }
    const bool entered = lock.try_lock_shared(1);
    std::int32_t readers_in_cs = 0;
    if (entered) {
        readers_in_cs = in.fetch_add(1) + 1;
        in.fetch_sub(1);
        lock.unlock_shared(1);
    }
    release.store(true);
    holder.join();
    EXPECT_TRUE(entered);
    EXPECT_EQ(readers_in_cs, 2);
}

TEST(AfSharedMutex, StdSharedLockInterop) {
    AfSharedMutex mtx(/*max_readers=*/8, /*max_writers=*/2);
    std::int64_t value = 0;  // Protected by mtx.
    RwInvariants inv;
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; ++r) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                std::shared_lock lk(mtx);
                inv.reader_cs();
                (void)value;
            }
        });
    }
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                std::unique_lock lk(mtx);
                inv.writer_cs();
                ++value;
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(inv.violated.load());
    EXPECT_EQ(value, 1000);
}

TEST(AfSharedMutex, SlotExhaustionThrows) {
    AfSharedMutex mtx(/*max_readers=*/1, /*max_writers=*/1);
    mtx.lock_shared();  // This thread takes the only reader slot.
    std::atomic<bool> threw{false};
    std::thread t([&] {
        try {
            mtx.lock_shared();
        } catch (const std::runtime_error&) {
            threw.store(true);
        }
    });
    t.join();
    mtx.unlock_shared();
    EXPECT_TRUE(threw.load());
}

}  // namespace
}  // namespace rwr::native
