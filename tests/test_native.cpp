// Multi-threaded stress tests for the native (std::atomic) implementations:
// f-array counter, tournament mutex, AfLock (all f choices), baselines, and
// the AfSharedMutex facade with std::shared_lock / std::unique_lock. The
// counter, tree, FAA and phase-fair texts' typed suites, which run each
// case on both executors, are in test_counter, test_mutex and
// test_baselines.
//
// This host may have a single core; thread counts and iteration budgets are
// sized so the suite stays fast while still forcing real interleavings via
// yields in every spin loop.
#include <gtest/gtest.h>
#if __has_include(<malloc.h>)
#include <malloc.h>  // mallinfo2
#endif

#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
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

TEST(NativeCounter, ConcurrentAdds) {
    // K threads, once through add() and once through move() from the leaf
    // value each thread tracks for its own slot: both paths must sum
    // exactly. At K = 8 every slot is a child of the root; at K = 9 the
    // ninth leaf is alone in a second subtree.
    constexpr int kIters = 5000;
    for (const std::uint32_t k : {4u, 8u, 9u}) {
        for (const bool via_move : {false, true}) {
            FArrayCounter c(k);
            std::atomic<bool> move_failed{false};
            std::vector<std::thread> threads;
            for (std::uint32_t t = 0; t < k; ++t) {
                threads.emplace_back([&, t] {
                    std::int32_t leaf = 0;
                    const auto step = [&](std::int32_t delta) {
                        if (!via_move) {
                            c.add(t, delta);
                        } else if (!c.move(t, leaf, leaf + delta)) {
                            move_failed.store(true);
                        }
                        leaf += delta;
                    };
                    for (int i = 0; i < kIters; ++i) {
                        step(+1);
                        if (i % 3 == 0) {
                            step(-1);
                        }
                    }
                });
            }
            for (auto& th : threads) {
                th.join();
            }
            const std::int64_t expected =
                std::int64_t{k} * (kIters - (kIters + 2) / 3);
            EXPECT_FALSE(move_failed.load())
                << "K=" << k << " via_move=" << via_move;
            EXPECT_EQ(c.read(), expected)
                << "K=" << k << " via_move=" << via_move;
        }
    }
}

TEST(NativeCounter, MoveFromTheWrongValueWritesNothing) {
    // `ref` takes the same adds as `c` but never a failed move: the two
    // must read the same after every step.
    for (const std::uint32_t k : {1u, 8u}) {
        FArrayCounter c(k);
        FArrayCounter ref(k);
        std::vector<std::int32_t> leaf(k, 0);
        for (std::uint32_t i = 0; i < 4 * k; ++i) {
            const std::uint32_t slot = (3 * i) % k;
            EXPECT_FALSE(c.move(slot, leaf[slot] + 1, 7));
            EXPECT_FALSE(c.move(slot, leaf[slot] - 1, leaf[slot]));
            EXPECT_EQ(c.read(), ref.read()) << "k=" << k << " i=" << i;
            const std::int32_t delta = (i % 2 == 0) ? 5 : -2;
            c.add(slot, delta);
            ref.add(slot, delta);
            leaf[slot] += delta;
            EXPECT_EQ(c.read(), ref.read()) << "k=" << k << " i=" << i;
        }
        // A move from the true leaf value still lands, as an add would; a
        // move at a slot past the last throws before any access.
        EXPECT_THROW((void)c.move(k, leaf[0], 7), std::out_of_range);
        ASSERT_TRUE(c.move(0, leaf[0], leaf[0] + 10));
        ref.add(0, 10);
        EXPECT_EQ(c.read(), ref.read()) << "k=" << k;
    }
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

/// m threads on an m-slot tree, 12000 passages in all. At m = 8 the
/// threads outnumber a 4-core host's cores, so losers park as well as spin.
class NativeTournamentMutexStress
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NativeTournamentMutexStress, ExclusionStress) {
    const std::uint32_t m = GetParam();
    const int iters = 12000 / static_cast<int>(m);
    TournamentMutex mx(m);
    std::int64_t plain_counter = 0;  // Deliberately non-atomic.
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < m; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                mx.lock(t);
                plain_counter += 1;  // Data race iff exclusion fails.
                mx.unlock(t);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plain_counter, static_cast<std::int64_t>(m) * iters);
}

INSTANTIATE_TEST_SUITE_P(Slots, NativeTournamentMutexStress,
                         ::testing::Values(2u, 4u, 8u));

/// The CS payload: plain (non-atomic) words that a writer rewrites and a
/// reader verifies. A version, data derived from it, and a checksum: a
/// reader that overlaps a writer sees them disagree, and one that lacks
/// the lock's happens-before edge from the last writer's CS is a data race
/// TSan reports even when the interleaving happens to be harmless.
struct Record {
    static constexpr std::uint32_t kData = 6;
    std::uint64_t version = 0;
    std::uint64_t data[kData] = {};
    std::uint64_t checksum = 0;

    /// A distinct odd multiplier per word; version 0 is all zeros, so a
    /// fresh record is intact.
    static std::uint64_t data_word(std::uint64_t v, std::uint32_t i) {
        return v * (0x9e3779b97f4a7c15ull + 2 * i);
    }
    [[nodiscard]] std::uint64_t sum() const {
        std::uint64_t s = version;
        for (const std::uint64_t d : data) {
            s ^= d;
        }
        return s;
    }
    /// Writes the version and the first half of the data; finish_write()
    /// writes the rest, so a yield in between widens the torn window.
    void begin_write() {
        ++version;
        for (std::uint32_t i = 0; i < kData / 2; ++i) {
            data[i] = data_word(version, i);
        }
    }
    void finish_write() {
        for (std::uint32_t i = kData / 2; i < kData; ++i) {
            data[i] = data_word(version, i);
        }
        checksum = sum();
    }
    [[nodiscard]] bool intact() const {
        for (std::uint32_t i = 0; i < kData; ++i) {
            if (data[i] != data_word(version, i)) {
                return false;
            }
        }
        return checksum == sum();
    }
};

/// The counters are relaxed so that the lock under test is the only source
/// of happens-before between CSes: a seq_cst counter would hand TSan the
/// very edge the lock must provide, and hide a missing one.
struct RwInvariants {
    static constexpr auto kRelaxed = std::memory_order_relaxed;
    std::atomic<std::int32_t> readers{0};
    std::atomic<std::int32_t> writers{0};
    std::atomic<bool> violated{false};
    std::atomic<std::int32_t> max_readers{0};
    Record record;

    void reader_cs() {
        const auto r = readers.fetch_add(1, kRelaxed) + 1;
        if (writers.load(kRelaxed) != 0 || !record.intact()) {
            violated.store(true, kRelaxed);
        }
        auto mr = max_readers.load(kRelaxed);
        while (r > mr &&
               !max_readers.compare_exchange_weak(mr, r, kRelaxed)) {
        }
        std::this_thread::yield();
        if (!record.intact()) {
            violated.store(true, kRelaxed);
        }
        readers.fetch_sub(1, kRelaxed);
    }
    void writer_cs() {
        if (writers.fetch_add(1, kRelaxed) != 0 ||
            readers.load(kRelaxed) != 0) {
            violated.store(true, kRelaxed);
        }
        record.begin_write();
        std::this_thread::yield();
        record.finish_write();
        if (readers.load(kRelaxed) != 0) {
            violated.store(true, kRelaxed);
        }
        writers.fetch_sub(1, kRelaxed);
    }
};

/// n reader threads and m writer threads, `iters` passages each. After the
/// joins the record must be intact and hold exactly one version per write.
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
    EXPECT_TRUE(inv->record.intact());
    EXPECT_EQ(inv->record.version, std::uint64_t{m} * iters);
}

using NativeAfPoint = std::tuple<std::uint32_t /*n*/, std::uint32_t /*m*/,
                                 std::uint32_t /*f*/>;

class NativeAfStress : public ::testing::TestWithParam<NativeAfPoint> {};

/// Every valid (f <= n) point of the small sweep, then two writers against
/// eight readers in several groups: four readers per group (f = 2) and one
/// per group (f = 8), where the writer's WSIG loops run longest. Last, two
/// groups whose counters fill one 8-ary root (K = 8) and two whose ninth
/// reader sits alone in a second subtree (K = 9).
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
    grid.emplace_back(8, 2, 2);
    grid.emplace_back(8, 2, 8);
    grid.emplace_back(16, 2, 2);
    grid.emplace_back(18, 1, 2);
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

TEST(NativeAfLock, OneGroupOfFourKeepsTheWriterOut) {
    // f = 1 puts all four readers in one group. While the writer waits at
    // line 21, an exiting reader checks C[0] == W[0]; a reader arriving
    // between a read of C[0] and a read of W[0] made them look equal with
    // a third reader still in the CS, and the writer entered beside it.
    // That failed in about one round in seven on a 4-core host, so 40
    // rounds all but always catch it.
    for (int round = 0; round < 40; ++round) {
        AfLock lock(4, 1, 1);
        RwInvariants inv;
        stress_rw(lock, 4, 1, 5000, &inv);
        ASSERT_FALSE(inv.violated.load()) << "round " << round;
    }
}

TEST(NativeAfLock, ArgumentValidation) {
    EXPECT_THROW(AfLock(4, 1, 0), std::invalid_argument);
    EXPECT_THROW(AfLock(4, 1, 5), std::invalid_argument);
    EXPECT_THROW(AfLock(0, 1, 1), std::invalid_argument);
    AfLock ok(4, 1, 2);
    EXPECT_THROW(ok.lock_shared(4), std::invalid_argument);
    EXPECT_THROW(ok.lock(1), std::invalid_argument);
}

TEST(NativeAfLock, RejectsAGroupAboveTheCounterCapacity) {
    // n = 2^32 - 1, f = 2: K = 2^31 > FArrayCounter::kMaxCapacity, and
    // (n + f - 1) / f would wrap K to 0. The throw comes before anything
    // n-sized is allocated.
    EXPECT_THROW(AfLock(0xFFFFFFFFu, 1, 2), std::invalid_argument);
}

TEST(AfSharedMutex, DefaultFIsTheSqrtChoice) {
    // core::f_of(FChoice::Sqrt, n) = ceil(sqrt n).
    EXPECT_EQ(AfSharedMutex(64, 8).underlying().f(), 8u);
    EXPECT_EQ(AfSharedMutex(65, 1).underlying().f(), 9u);
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

TEST(AfSharedMutex, SuccessorOfADestroyedMutexGetsItsOwnLease) {
    // Each successor is built at its predecessor's address, after this
    // thread used the predecessor. This thread must still take the
    // successor's only reader slot, so a second thread finds none left --
    // not a second holder of slot 0, which a lookup keyed by the mutex's
    // address would make it.
    std::optional<AfSharedMutex> mtx;
    for (int generation = 0; generation < 4; ++generation) {
        mtx.emplace(/*max_readers=*/1, /*max_writers=*/1);
        mtx->lock_shared();
        std::atomic<bool> exhausted{false};
        std::atomic<bool> misused{false};
        std::thread t([&] {
            try {
                mtx->lock_shared();
                mtx->unlock_shared();
            } catch (const std::runtime_error&) {
                exhausted.store(true);
            } catch (const std::logic_error&) {
                misused.store(true);
            }
        });
        t.join();
        mtx->unlock_shared();
        EXPECT_TRUE(exhausted.load()) << "generation " << generation;
        EXPECT_FALSE(misused.load()) << "generation " << generation;
    }
}

TEST(AfSharedMutex, SlotFreedAtThreadExitGoesToALaterThread) {
    AfSharedMutex mtx(/*max_readers=*/1, /*max_writers=*/1);
    for (int i = 0; i < 3; ++i) {
        std::atomic<bool> threw{false};
        std::thread t([&] {
            try {
                mtx.lock_shared();
                mtx.unlock_shared();
                mtx.lock();
                mtx.unlock();
            } catch (const std::exception&) {
                threw.store(true);
            }
        });
        t.join();
        EXPECT_FALSE(threw.load()) << "thread " << i;
    }
    mtx.lock_shared();  // The slots are back for this thread too.
    mtx.unlock_shared();
    mtx.lock();
    mtx.unlock();
}

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
TEST(AfSharedMutex, LeasesOfDestroyedMutexesDoNotPileUp) {
    // One thread creates, uses and destroys 100k mutexes. A lease it keeps
    // for each dead one would hold on to its pool's allocation (~170 B per
    // mutex, 17 MB in all); dropped leases keep the heap flat.
    std::size_t grew = 0;
    std::thread t([&] {
        const std::size_t before = mallinfo2().uordblks;
        for (int i = 0; i < 100'000; ++i) {
            AfSharedMutex mtx(/*max_readers=*/2, /*max_writers=*/1);
            mtx.lock_shared();
            mtx.unlock_shared();
            mtx.lock();
            mtx.unlock();
        }
        const std::size_t after = mallinfo2().uordblks;
        grew = after > before ? after - before : 0;
    });
    t.join();
    EXPECT_LT(grew, std::size_t{1} << 20);
}
#endif

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
