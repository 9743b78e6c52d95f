// Tests for the m-process mutual-exclusion substrate (src/mutex): mutual
// exclusion (exhaustive small-schedule search + randomized), deadlock
// freedom, bounded bypass / starvation freedom of the tournament lock, and
// its O(log m) RMR complexity.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mutex/sim_mutex.hpp"
#include "native/mutex.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "step_digest.hpp"

namespace rwr::mutex {
namespace {

using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

/// Drives `passages` lock/unlock cycles, checking exclusivity with a plain
/// (non-simulated) occupancy counter.
struct MutexHarness {
    int in_cs = 0;
    int max_seen = 0;
    std::uint64_t total_entries = 0;
    std::vector<std::uint64_t> entries_per_slot;
};

SimTask<void> mutex_passages(SimMutex& mx, Process& p, std::uint32_t slot,
                             int passages, MutexHarness* h) {
    for (int k = 0; k < passages; ++k) {
        co_await mx.enter(p, slot);
        h->in_cs += 1;
        h->max_seen = std::max(h->max_seen, h->in_cs);
        h->total_entries += 1;
        h->entries_per_slot[slot] += 1;
        co_await p.local_step();  // Scheduling point inside the CS.
        h->in_cs -= 1;
        co_await mx.exit(p, slot);
    }
}

enum class MutexKind { Tournament, Tas, Mcs };

std::unique_ptr<SimMutex> make_mutex(Memory& mem, MutexKind kind,
                                     std::uint32_t m) {
    if (kind == MutexKind::Tournament) {
        return std::make_unique<TournamentSimMutex>(mem, "mx", m);
    }
    if (kind == MutexKind::Mcs) {
        return std::make_unique<McsSimMutex>(mem, "mx", m);
    }
    return std::make_unique<TasSimMutex>(mem, "mx");
}

class MutexSweep
    : public ::testing::TestWithParam<
          std::tuple<MutexKind, Protocol, std::uint32_t /*m*/,
                     std::uint64_t /*seed*/>> {};

TEST_P(MutexSweep, MutualExclusionAndProgressUnderRandomSchedules) {
    const auto [kind, proto, m, seed] = GetParam();
    System sys(proto);
    auto mx = make_mutex(sys.memory(), kind, m);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(m, 0);
    constexpr int kPassages = 6;
    for (std::uint32_t s = 0; s < m; ++s) {
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(*mx, p, s, kPassages, h.get()));
    }
    sim::RandomScheduler sched(seed);
    const auto result = sim::run(sys, sched, 5'000'000);
    sys.check_failures();
    ASSERT_TRUE(result.all_finished) << "possible deadlock/livelock";
    EXPECT_EQ(h->max_seen, 1) << "mutual exclusion violated";
    EXPECT_EQ(h->total_entries, static_cast<std::uint64_t>(m) * kPassages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutexSweep,
    ::testing::Combine(::testing::Values(MutexKind::Tournament,
                                         MutexKind::Tas, MutexKind::Mcs),
                       ::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Range<std::uint64_t>(0, 6)));

TEST(TournamentMutex, ExhaustiveSmallSchedules) {
    // Exhaustive DFS over the first 14 scheduling decisions for 2 processes
    // x 2 passages: mutual exclusion must hold on every explored schedule.
    // (Replay-based, so each schedule rebuilds the scenario.)
    struct Shared {
        System sys{Protocol::WriteThrough};
        std::unique_ptr<SimMutex> mx;
        std::unique_ptr<MutexHarness> h;
    };
    long long schedules = 0;
    // Hand-rolled DFS mirroring sim::explore_dfs but asserting on the
    // harness (the generic explorer checks RW sections, not this counter).
    std::vector<std::size_t> prefix;
    std::function<void(int)> dfs = [&](int depth) {
        Shared sh;
        sh.mx = make_mutex(sh.sys.memory(), MutexKind::Tournament, 2);
        sh.h = std::make_unique<MutexHarness>();
        sh.h->entries_per_slot.assign(2, 0);
        for (std::uint32_t s = 0; s < 2; ++s) {
            Process& p = sh.sys.add_process(Role::Writer);
            p.set_task(mutex_passages(*sh.mx, p, s, 2, sh.h.get()));
        }
        sh.sys.start_all();
        for (const auto c : prefix) {
            const auto r = sh.sys.runnable();
            if (r.empty()) break;
            sh.sys.step(r[c % r.size()]);
        }
        const auto width = sh.sys.runnable().size();
        // Finish round-robin and check.
        sim::RoundRobinScheduler rr;
        sim::run(sh.sys, rr, 100'000);
        sh.sys.check_failures();
        ASSERT_EQ(sh.h->max_seen, 1);
        ASSERT_EQ(sh.h->total_entries, 4u);
        ++schedules;
        if (depth == 0 || width <= 1) return;
        for (std::size_t c = 0; c < width; ++c) {
            prefix.push_back(c);
            dfs(depth - 1);
            prefix.pop_back();
        }
    };
    dfs(14);
    EXPECT_GT(schedules, 1000);
}

TEST(TournamentMutex, NoStarvationUnderFairSchedules) {
    // Bounded bypass: with all 4 processes running many passages under a
    // fair random scheduler, every slot completes all its passages.
    System sys(Protocol::WriteBack);
    TournamentSimMutex mx(sys.memory(), "mx", 4);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(4, 0);
    for (std::uint32_t s = 0; s < 4; ++s) {
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(mx, p, s, 25, h.get()));
    }
    sim::RandomScheduler sched(7);
    ASSERT_TRUE(sim::run(sys, sched, 10'000'000).all_finished);
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(h->entries_per_slot[s], 25u);
    }
}

TEST(TournamentMutex, SoloRmrCostIsLogarithmic) {
    // A solo passage costs Theta(log m) RMRs: 3 writes + ~2 reads per level
    // on entry, 1 write per level on exit.
    std::vector<std::uint64_t> rmrs;
    for (const std::uint32_t m : {1u, 2u, 4u, 16u, 64u, 256u}) {
        System sys(Protocol::WriteThrough);
        TournamentSimMutex mx(sys.memory(), "mx", m);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(mx, p, 0, 1, h.get()));
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 100'000).all_finished);
        rmrs.push_back(p.stats().total_rmrs());
    }
    EXPECT_EQ(rmrs[0], 0u);  // m == 1: empty tree, no shared steps at all.
    // Linear in the number of levels: rmrs for m=2^k is k * per-level cost.
    const auto per_level = rmrs[1];
    EXPECT_EQ(rmrs[2], 2 * per_level);
    EXPECT_EQ(rmrs[3], 4 * per_level);
    EXPECT_EQ(rmrs[4], 6 * per_level);
    EXPECT_EQ(rmrs[5], 8 * per_level);
}

TEST(TournamentMutex, ContendedRmrPerPassageStaysLogarithmic) {
    // Under a fair round-robin with m contenders, the *average* RMR cost
    // per passage stays O(log m) -- the local-spin property: spinning reads
    // hit the cache until the rival writes.
    for (const std::uint32_t m : {2u, 4u, 8u, 16u}) {
        System sys(Protocol::WriteBack);
        TournamentSimMutex mx(sys.memory(), "mx", m);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        constexpr int kPassages = 10;
        for (std::uint32_t s = 0; s < m; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
        }
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 20'000'000).all_finished);
        std::uint64_t total_rmrs = 0;
        for (ProcId id = 0; id < sys.num_processes(); ++id) {
            total_rmrs += sys.process(id).stats().total_rmrs();
        }
        const double per_passage =
            static_cast<double>(total_rmrs) / (m * kPassages);
        const double levels = std::bit_width(m) - 1;
        // Generous constant: ~3 writes + spin invalidations per level.
        EXPECT_LE(per_passage, 14.0 * levels + 6.0)
            << "m=" << m << " per-passage RMRs " << per_passage;
    }
}

// ---- One suite, both executors of mutex/tournament_protocol.inc -------------
//
// Each tier drives its tree through the same calls: the simulated one runs
// each call solo to completion in a process of its own, and m slots under a
// seeded random schedule; the native one calls it directly, and from m
// threads. A try is the tier's attempt that gives up rather than wait: an
// immediate deadline natively, and in the simulator the least patience that
// gets a solo climb through (3 steps a level; see the text's header).

SimTask<void> enter_once(TournamentSimMutex& mx, Process& p,
                         std::uint32_t slot) {
    co_await mx.enter(p, slot);
}

class SimTreeTier {
   public:
    explicit SimTreeTier(std::uint32_t m)
        : mx_(sys_.memory(), "wl", m), m_(m) {}

    void lock(std::uint32_t slot) {
        solo([&](Process& p) { return enter_once(mx_, p, slot); });
    }
    void unlock(std::uint32_t slot) {
        solo([&](Process& p) { return mx_.exit(p, slot); });
    }
    bool try_lock(std::uint32_t slot) {
        const auto levels = static_cast<std::uint64_t>(
            std::bit_width(std::bit_ceil(m_)) - 1);
        EnterResult r = EnterResult::Aborted;
        solo([&](Process& p) -> SimTask<void> {
            r = co_await mx_.enter_abortable(p, slot,
                                             AbortControl::after(3 * levels));
        });
        return r == EnterResult::Acquired;
    }
    /// m slots, `passages` passages each; the most slots seen in the CS.
    int max_holders(int passages, std::uint64_t seed) {
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m_, 0);
        for (std::uint32_t s = 0; s < m_; ++s) {
            Process& p = sys_.add_process(Role::Writer);
            p.set_task(mutex_passages(mx_, p, s, passages, h.get()));
        }
        sim::RandomScheduler sched(seed);
        EXPECT_TRUE(sim::run(sys_, sched, 5'000'000).all_finished);
        sys_.check_failures();
        EXPECT_EQ(h->total_entries, std::uint64_t{m_} * passages);
        return h->max_seen;
    }

   private:
    template <class Body>
    void solo(Body body) {
        Process& p = sys_.add_process(Role::Writer);
        p.set_task(body(p));
        sim::run_solo(sys_, p.id(), 100'000);
        ASSERT_TRUE(p.finished() || p.failed());
        p.rethrow_if_failed();
    }

    System sys_{Protocol::WriteBack};
    TournamentSimMutex mx_;
    std::uint32_t m_;
};

class NativeTreeTier {
   public:
    explicit NativeTreeTier(std::uint32_t m) : mx_(m), m_(m) {}

    void lock(std::uint32_t slot) { mx_.lock(slot); }
    void unlock(std::uint32_t slot) { mx_.unlock(slot); }
    bool try_lock(std::uint32_t slot) { return mx_.try_lock(slot); }
    int max_holders(int passages, std::uint64_t /*seed*/) {
        std::atomic<int> in_cs{0};
        std::atomic<int> max_seen{0};
        std::vector<std::thread> threads;
        for (std::uint32_t s = 0; s < m_; ++s) {
            threads.emplace_back([&, s] {
                for (int i = 0; i < 40 * passages; ++i) {
                    mx_.lock(s);
                    const int now = in_cs.fetch_add(1) + 1;
                    int seen = max_seen.load();
                    while (now > seen &&
                           !max_seen.compare_exchange_weak(seen, now)) {
                    }
                    in_cs.fetch_sub(1);
                    mx_.unlock(s);
                }
            });
        }
        for (auto& t : threads) {
            t.join();
        }
        return max_seen.load();
    }

   private:
    native::TournamentMutex mx_;
    std::uint32_t m_;
};

template <class Tier>
class TreeText : public ::testing::Test {};
using TreeTiers = ::testing::Types<SimTreeTier, NativeTreeTier>;
TYPED_TEST_SUITE(TreeText, TreeTiers);

TYPED_TEST(TreeText, SoloPassagesAtEveryShape) {
    // m = 1 is an empty tree; 3 and 5 have padding leaves.
    for (const std::uint32_t m : {1u, 2u, 3u, 5u, 8u}) {
        TypeParam mx(m);
        for (int round = 0; round < 2; ++round) {
            for (std::uint32_t slot = 0; slot < m; ++slot) {
                mx.lock(slot);
                mx.unlock(slot);
            }
        }
        for (std::uint32_t slot = 0; slot < m; ++slot) {
            EXPECT_TRUE(mx.try_lock(slot)) << "m=" << m << " slot=" << slot;
            mx.unlock(slot);
        }
    }
}

TYPED_TEST(TreeText, RejectsBadSizesBeforeAllocating) {
    // 0x80000001 used to pass both constructors: the simulated tree built
    // no levels, and the native one evaluated bit_ceil(m) before any check.
    for (const std::uint32_t m : {0u, 0x80000001u, 0xffffffffu}) {
        EXPECT_THROW(TypeParam{m}, std::invalid_argument) << "m=" << m;
    }
}

TYPED_TEST(TreeText, RejectsBadSlots) {
    for (const std::uint32_t m : {1u, 3u}) {
        TypeParam mx(m);
        for (const std::uint32_t slot : {m, m + 1, 0xffffffffu}) {
            EXPECT_THROW(mx.lock(slot), std::invalid_argument);
            EXPECT_THROW(mx.unlock(slot), std::invalid_argument);
            EXPECT_THROW(mx.try_lock(slot), std::invalid_argument);
        }
        mx.lock(m - 1);
        mx.unlock(m - 1);
    }
}

TYPED_TEST(TreeText, TryFailsWhileHeldAndRollsBack) {
    // Every other slot gives up at the node where it meets the holder's
    // path. A rollback that leaked a flag would make a later try fail.
    for (const std::uint32_t m : {2u, 3u, 5u}) {
        TypeParam mx(m);
        mx.lock(0);
        for (std::uint32_t slot = 1; slot < m; ++slot) {
            EXPECT_FALSE(mx.try_lock(slot)) << "m=" << m << " slot=" << slot;
        }
        mx.unlock(0);
        for (std::uint32_t slot = 1; slot < m; ++slot) {
            EXPECT_TRUE(mx.try_lock(slot)) << "m=" << m << " slot=" << slot;
            mx.unlock(slot);
        }
    }
}

TYPED_TEST(TreeText, ExclusionUnderContention) {
    for (const std::uint32_t m : {2u, 3u, 5u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            TypeParam mx(m);
            EXPECT_EQ(mx.max_holders(4, seed), 1)
                << "m=" << m << " seed " << seed;
        }
    }
}

TEST(TournamentSimMutex, SoloClimbNeedsPatienceThreeTimesItsLevels) {
    // The simulator's patience counts the climb's own steps, two
    // announcement writes a node and each read of its waits, checked
    // before each Peterson test: a solo climb of L levels gets through
    // with patience 3L and gives up with 3L - 1.
    for (const std::uint32_t m : {2u, 3u, 4u, 8u}) {
        const std::uint64_t levels = std::bit_width(std::bit_ceil(m)) - 1;
        for (const std::uint64_t patience : {3 * levels - 1, 3 * levels}) {
            System sys(Protocol::WriteBack);
            TournamentSimMutex mx(sys.memory(), "wl", m);
            Process& p = sys.add_process(Role::Writer);
            EnterResult r = EnterResult::Aborted;
            auto body = [&](Process& proc) -> SimTask<void> {
                r = co_await mx.enter_abortable(proc, m - 1,
                                                AbortControl::after(patience));
            };
            p.set_task(body(p));
            sim::run_solo(sys, p.id(), 1'000);
            ASSERT_TRUE(p.finished());
            EXPECT_EQ(r == EnterResult::Acquired, patience == 3 * levels)
                << "m=" << m << " patience " << patience;
        }
    }
}

TEST(McsMutex, ExhaustiveSmallSchedules) {
    // 2 processes x 2 passages, all interleavings of the first 14 choices:
    // FIFO queue handoff must never break mutual exclusion.
    long long schedules = 0;
    std::vector<std::size_t> prefix;
    std::function<void(int)> dfs = [&](int depth) {
        System sys(Protocol::WriteBack);
        McsSimMutex mx(sys.memory(), "mx", 2);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(2, 0);
        for (std::uint32_t s = 0; s < 2; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, 2, h.get()));
        }
        sys.start_all();
        for (const auto c : prefix) {
            const auto r = sys.runnable();
            if (r.empty()) break;
            sys.step(r[c % r.size()]);
        }
        const auto width = sys.runnable().size();
        sim::RoundRobinScheduler rr;
        sim::run(sys, rr, 100'000);
        sys.check_failures();
        ASSERT_EQ(h->max_seen, 1);
        ASSERT_EQ(h->total_entries, 4u);
        ++schedules;
        if (depth == 0 || width <= 1) return;
        for (std::size_t c = 0; c < width; ++c) {
            prefix.push_back(c);
            dfs(depth - 1);
            prefix.pop_back();
        }
    };
    dfs(14);
    EXPECT_GT(schedules, 1000);
}

TEST(McsMutex, LocalSpinUnderDsm) {
    // The MCS claim to fame: with nodes homed at their owners, a waiter
    // spins on its OWN node even under DSM -- RMRs stay bounded while the
    // holder dawdles. (The Peterson tree cannot do this; see bench_dsm.)
    System sys(Protocol::Dsm);
    McsSimMutex mx(sys.memory(), "mx", 2, /*owner_base=*/0);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(2, 0);
    Process& p0 = sys.add_process(Role::Writer);
    Process& p1 = sys.add_process(Role::Writer);
    p0.set_task(mutex_passages(mx, p0, 0, 1, h.get()));
    p1.set_task(mutex_passages(mx, p1, 1, 1, h.get()));
    sys.start_all();
    // p0 acquires and parks inside the CS (mutex_passages tracks occupancy
    // via the harness, not Process sections).
    int guard = 0;
    while (h->in_cs == 0 && guard++ < 100) {
        sys.step(p0.id());
    }
    ASSERT_EQ(h->in_cs, 1);
    for (int i = 0; i < 500; ++i) {
        sys.step(p1.id());  // p1 spins while p0 sits in the CS.
    }
    // Enqueue (4 remote-ish steps) + local spinning: RMRs must be O(1),
    // not O(spins).
    EXPECT_LE(p1.stats().total_rmrs(), 8u);
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 100'000).all_finished);
    EXPECT_EQ(h->max_seen, 1);
}

TEST(TasMutex, ContendedRmrPerPassageGrowsWithM) {
    // The contrast: TAS spinning burns RMRs proportional to contention.
    std::vector<double> per_passage;
    for (const std::uint32_t m : {2u, 8u, 32u}) {
        System sys(Protocol::WriteBack);
        TasSimMutex mx(sys.memory(), "mx");
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        constexpr int kPassages = 8;
        for (std::uint32_t s = 0; s < m; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
        }
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 20'000'000).all_finished);
        std::uint64_t total_rmrs = 0;
        for (ProcId id = 0; id < sys.num_processes(); ++id) {
            total_rmrs += sys.process(id).stats().total_rmrs();
        }
        per_passage.push_back(static_cast<double>(total_rmrs) /
                              (m * kPassages));
    }
    // Super-logarithmic growth: m x16 should much more than double the cost.
    EXPECT_GT(per_passage[2], 2.0 * per_passage[0]);
}


// ---- Every simulated step of the tree, pinned -------------------------------
//
// m slots, each making three attempts with the same patience and leaving
// the lock after a 1-step CS when one acquires, under seeded random
// schedules (tests/step_digest.hpp). Patience runs from 0 (a solo climb
// aborts) through the values at which each climb first completes, to
// never.

SimTask<void> patient_attempts(TournamentSimMutex& mx, Process& p,
                               std::uint32_t slot, AbortControl ctl) {
    for (int k = 0; k < 3; ++k) {
        const EnterResult r = co_await mx.enter_abortable(p, slot, ctl);
        if (r == EnterResult::Acquired) {
            co_await p.local_step();
            co_await mx.exit(p, slot);
        }
    }
}

TEST(TournamentStepDigest, AbortableClimbsArePinned) {
    struct Case {
        std::uint32_t m;
        std::uint64_t patience;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t steps;
    };
    const Case cases[] = {
        {2u, 0, 0, 0xe876317d607dae13ull, 18},
        {2u, 0, 1, 0x3e82f4c8526c3213ull, 18},
        {2u, 1, 0, 0xe876317d607dae13ull, 18},
        {2u, 1, 1, 0x3e82f4c8526c3213ull, 18},
        {2u, 2, 0, 0xe876317d607dae13ull, 18},
        {2u, 2, 1, 0x3e82f4c8526c3213ull, 18},
        {2u, 3, 0, 0x40347bd50da4e111ull, 33},
        {2u, 3, 1, 0x3f021fb3c69735f0ull, 31},
        {2u, 4, 0, 0x40347bd50da4e111ull, 33},
        {2u, 4, 1, 0x3f021fb3c69735f0ull, 31},
        {2u, 6, 0, 0xd73e2822c7b16170ull, 37},
        {2u, 6, 1, 0x4334bb47b0cfac73ull, 35},
        {2u, 8, 0, 0xea634e733c4f49f1ull, 46},
        {2u, 8, 1, 0x7765ff1bba007611ull, 40},
        {2u, 12, 0, 0xd32b59738f13ea92ull, 53},
        {2u, 12, 1, 0xfc8ce1f57809dd92ull, 44},
        {2u, AbortControl::kNever, 0, 0xd32b59738f13ea92ull, 53},
        {2u, AbortControl::kNever, 1, 0xfc8ce1f57809dd92ull, 44},
        {3u, 0, 0, 0x23032c06453f3bedull, 27},
        {3u, 0, 1, 0x7df78ca52f82300dull, 27},
        {3u, 1, 0, 0x23032c06453f3bedull, 27},
        {3u, 1, 1, 0x7df78ca52f82300dull, 27},
        {3u, 2, 0, 0x23032c06453f3bedull, 27},
        {3u, 2, 1, 0x7df78ca52f82300dull, 27},
        {3u, 3, 0, 0xcdcd35a00960638eull, 57},
        {3u, 3, 1, 0xd04cc78625eeab89ull, 59},
        {3u, 4, 0, 0xcdcd35a00960638eull, 57},
        {3u, 4, 1, 0xd04cc78625eeab89ull, 59},
        {3u, 6, 0, 0xe1ca01ae6d17012full, 75},
        {3u, 6, 1, 0x7f2926e6a8862a7bull, 72},
        {3u, 8, 0, 0x2be529d5071c2929ull, 86},
        {3u, 8, 1, 0x19fad0be40b7cfc2ull, 90},
        {3u, 12, 0, 0xd3aa13800d7a373eull, 109},
        {3u, 12, 1, 0xa5712675d008b745ull, 111},
        {3u, AbortControl::kNever, 0, 0xba377e0d93535b7eull, 142},
        {3u, AbortControl::kNever, 1, 0xd9c3a74206772d2bull, 122},
        {5u, 0, 0, 0x0b3edca7148e8a5aull, 45},
        {5u, 0, 1, 0x6490c57ba3cfdf3aull, 45},
        {5u, 1, 0, 0x0b3edca7148e8a5aull, 45},
        {5u, 1, 1, 0x6490c57ba3cfdf3aull, 45},
        {5u, 2, 0, 0x0b3edca7148e8a5aull, 45},
        {5u, 2, 1, 0x6490c57ba3cfdf3aull, 45},
        {5u, 3, 0, 0x723d4417637d94c0ull, 97},
        {5u, 3, 1, 0xa4b6f2d41fd17303ull, 94},
        {5u, 4, 0, 0x723d4417637d94c0ull, 97},
        {5u, 4, 1, 0xa4b6f2d41fd17303ull, 94},
        {5u, 6, 0, 0x454ca8d158aacd4full, 140},
        {5u, 6, 1, 0xde1735761d0c8282ull, 129},
        {5u, 8, 0, 0x9d80e9dbb625868aull, 158},
        {5u, 8, 1, 0xd98e547ee2e8b6c4ull, 160},
        {5u, 12, 0, 0xc2212cd56661c866ull, 211},
        {5u, 12, 1, 0xb7fa7eceb900758full, 211},
        {5u, AbortControl::kNever, 0, 0x96c9ea65d7a1db9aull, 389},
        {5u, AbortControl::kNever, 1, 0xa155d94a86351299ull, 500},
    };
    for (const Case& c : cases) {
        const testkit::DigestRun r = testkit::digest_run(
            Protocol::WriteBack,
            [&](System& sys) {
                auto mx = std::make_shared<TournamentSimMutex>(sys.memory(),
                                                               "wl", c.m);
                for (std::uint32_t s = 0; s < c.m; ++s) {
                    Process& p = sys.add_process(Role::Writer);
                    p.set_task(patient_attempts(*mx, p, s,
                                                AbortControl{c.patience}));
                }
                return std::shared_ptr<void>(mx);
            },
            c.seed, /*hash_names=*/true, 1'000'000);
        const std::string label =
            "m=" + std::to_string(c.m) + " patience " +
            std::to_string(c.patience) + " seed " + std::to_string(c.seed);
        EXPECT_TRUE(r.finished) << label;
        EXPECT_EQ(r.steps, c.steps) << label;
        EXPECT_EQ(r.digest, c.digest) << label;
    }
}

}  // namespace
}  // namespace rwr::mutex
