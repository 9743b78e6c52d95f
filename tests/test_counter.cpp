// Tests for the K-process f-array counter, counter/farray_protocol.inc:
// correctness under sequential and concurrent use on both executors (one
// typed suite), and on the simulated one step complexity (Θ(log K) add,
// O(1) read), the double-refresh propagation guarantee, the DSM placement
// A_f uses (each slot's leaf homed at its owner) and every step pinned.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "counter/sim_counter.hpp"
#include "native/counter.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "step_digest.hpp"

namespace rwr::counter {
namespace {

using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

SimTask<void> do_adds(FArraySimCounter& c, Process& p, std::uint32_t slot,
                      std::vector<std::int64_t> deltas) {
    for (const auto d : deltas) {
        co_await c.add(p, slot, d);
    }
}

SimTask<void> read_into(FArraySimCounter& c, Process& p,
                        std::vector<std::int64_t>* out, int times) {
    for (int i = 0; i < times; ++i) {
        out->push_back(co_await c.read(p));
    }
}

// ---- One suite, both executors of counter/farray_protocol.inc ---------------
//
// Each tier drives its counter through the same calls: the simulated one
// runs each call solo to completion in a process of its own, and K adders
// under a seeded random schedule; the native one calls it directly, and
// from K threads.

/// The fan-in 2 executor, with padding leaves.
class SimTier {
   public:
    using Counter = FArraySimCounter;
    static constexpr std::uint32_t kFanIn = 2;
    static constexpr bool kPadded = true;
    static constexpr int kContendedAdds = 12;

    explicit SimTier(std::uint32_t k) : c_(sys_.memory(), "c", k) {}

    void add(std::uint32_t slot, std::int64_t delta) {
        solo([&](Process& p) -> SimTask<void> {
            co_await c_.add(p, slot, delta);
        });
    }
    std::int64_t read() {
        std::int64_t v = 0;
        solo([&](Process& p) -> SimTask<void> { v = co_await c_.read(p); });
        return v;
    }
    /// Slot s of every slot adds +1 `adds` times and undoes every third.
    void add_concurrently(int adds, std::uint64_t seed) {
        for (std::uint32_t s = 0; s < c_.capacity(); ++s) {
            std::vector<std::int64_t> deltas;
            for (int i = 0; i < adds; ++i) {
                deltas.push_back(1);
                if (i % 3 == 0) {
                    deltas.push_back(-1);
                }
            }
            Process& p = sys_.add_process(Role::Reader);
            p.set_task(do_adds(c_, p, s, std::move(deltas)));
        }
        sim::RandomScheduler sched(seed);
        ASSERT_TRUE(sim::run(sys_, sched, 10'000'000).all_finished);
        sys_.check_failures();
    }

   private:
    template <class Body>
    void solo(Body body) {
        Process& p = sys_.add_process(Role::Reader);
        p.set_task(body(p));
        sim::run_solo(sys_, p.id(), 1'000'000);
        ASSERT_TRUE(p.finished() || p.failed());
        p.rethrow_if_failed();
    }

    System sys_{Protocol::WriteBack};
    FArraySimCounter c_;
};

/// The fan-in 8 executor, with no padding leaves.
class NativeTier {
   public:
    using Counter = native::FArrayCounter;
    static constexpr std::uint32_t kFanIn = 8;
    static constexpr bool kPadded = false;
    static constexpr int kContendedAdds = 5000;

    explicit NativeTier(std::uint32_t k) : c_(k) {}

    void add(std::uint32_t slot, std::int64_t delta) { c_.add(slot, delta); }
    std::int64_t read() { return c_.read(); }
    void add_concurrently(int adds, std::uint64_t /*seed*/) {
        std::vector<std::thread> threads;
        for (std::uint32_t s = 0; s < c_.capacity(); ++s) {
            threads.emplace_back([this, s, adds] {
                for (int i = 0; i < adds; ++i) {
                    c_.add(s, 1);
                    if (i % 3 == 0) {
                        c_.add(s, -1);
                    }
                }
            });
        }
        for (auto& t : threads) {
            t.join();
        }
    }

   private:
    native::FArrayCounter c_;
};

template <class Tier>
class CounterText : public ::testing::Test {};
using CounterTiers = ::testing::Types<SimTier, NativeTier>;
TYPED_TEST_SUITE(CounterText, CounterTiers);

TYPED_TEST(CounterText, SequentialAddsAndReads) {
    TypeParam c(4);
    EXPECT_EQ(c.read(), 0);
    c.add(0, 5);
    EXPECT_EQ(c.read(), 5);
    c.add(1, -2);
    EXPECT_EQ(c.read(), 3);
    c.add(3, 10);
    c.add(0, 1);
    EXPECT_EQ(c.read(), 14);
}

TYPED_TEST(CounterText, CapacityOneIsALeafThatIsTheRoot) {
    EXPECT_EQ(TypeParam::Counter::shape_for(1).height, 0u);
    EXPECT_EQ(TypeParam::Counter::shape_for(1).nodes, 1u);
    TypeParam c(1);
    c.add(0, 7);
    EXPECT_EQ(c.read(), 7);
    c.add(0, -9);
    EXPECT_EQ(c.read(), -2);
}

TYPED_TEST(CounterText, ShapeFollowsTheFanIn) {
    // h = ceil(log_b K) internal levels of 1 + b + ... + b^(h-1) nodes, then
    // the K leaves, padded to b^h on the padded tier.
    for (const std::uint32_t k :
         {1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 513u, 4096u, 4097u,
          std::uint32_t{1} << 30}) {
        const auto s = TypeParam::Counter::shape_for(k);
        std::uint64_t span = 1;
        std::uint64_t internal = 0;
        std::uint32_t height = 0;
        while (span < k) {
            internal += span;
            span *= TypeParam::kFanIn;
            ++height;
        }
        EXPECT_EQ(s.capacity, k);
        EXPECT_EQ(s.height, height) << "K=" << k;
        EXPECT_EQ(s.first_leaf, internal) << "K=" << k;
        EXPECT_EQ(s.nodes, internal + (TypeParam::kPadded ? span : k))
            << "K=" << k;
    }
    // The two fan-ins at a glance: K = 4096 is 12 binary and 4 octal levels.
    EXPECT_EQ(TypeParam::Counter::shape_for(4096).height,
              TypeParam::kFanIn == 2 ? 12u : 4u);
}

TYPED_TEST(CounterText, RejectsBadSizesBeforeAllocating) {
    // 0x80000001 used to pass the simulated constructor, which then built
    // one variable for 2^31 + 1 slots.
    for (const std::uint32_t k :
         {0u, (1u << 30) + 1, 0x80000000u, 0x80000001u, 0xffffffffu}) {
        EXPECT_THROW(TypeParam::Counter::shape_for(k), std::invalid_argument)
            << "K=" << k;
        EXPECT_THROW(TypeParam{k}, std::invalid_argument) << "K=" << k;
    }
}

TYPED_TEST(CounterText, RejectsBadSlotsWritingNothing) {
    // K = 3 has a padding leaf at slot 3 on the padded tier; K = 9 puts one
    // leaf into a second subtree at fan-in 8.
    for (const std::uint32_t k : {1u, 3u, 8u, 9u}) {
        TypeParam c(k);
        for (const std::uint32_t slot :
             {k, k + 1, 2 * k + 7, 0xffffffffu}) {
            EXPECT_THROW(c.add(slot, 5), std::out_of_range)
                << "K=" << k << " slot=" << slot;
        }
        EXPECT_EQ(c.read(), 0) << "K=" << k;
        for (std::uint32_t slot = 0; slot < k; ++slot) {
            c.add(slot, 1);
        }
        EXPECT_EQ(c.read(), std::int64_t{k}) << "K=" << k;
    }
}

TYPED_TEST(CounterText, SumsAtEveryShape) {
    // Full and partial last subtrees at one, two and three levels. Slot s
    // adds its own delta, so a sum that lost or doubled a leaf, or read one
    // from another slot, would show.
    const auto delta = [](std::uint32_t slot) {
        return (slot % 2 == 0 ? 1 : -1) * static_cast<std::int64_t>(slot + 1);
    };
    for (const std::uint32_t k : {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 513u}) {
        TypeParam c(k);
        std::int64_t sum = 0;
        for (std::uint32_t slot = 0; slot < k; ++slot) {
            c.add(slot, delta(slot));
            sum += delta(slot);
            ASSERT_EQ(c.read(), sum) << "K=" << k << " slot=" << slot;
        }
        for (std::uint32_t slot = 0; slot < k; ++slot) {
            c.add(slot, -delta(slot));
        }
        EXPECT_EQ(c.read(), 0) << "K=" << k;
    }
}

TYPED_TEST(CounterText, ConcurrentAddsSumExactly) {
    // At fan-in 8, K = 8 puts every slot under the root and K = 9 the ninth
    // leaf alone in a second subtree; K = 3 and 5 have padding leaves at
    // fan-in 2.
    for (const std::uint32_t k : {3u, 5u, 8u, 9u}) {
        for (const std::uint64_t seed : {1u, 2u}) {
            TypeParam c(k);
            const int adds = TypeParam::kContendedAdds;
            c.add_concurrently(adds, seed);
            EXPECT_EQ(c.read(), std::int64_t{k} * (adds - (adds + 2) / 3))
                << "K=" << k << " seed " << seed;
        }
    }
}

class CounterConcurrency
    : public ::testing::TestWithParam<
          std::tuple<Protocol, std::uint32_t /*K*/, std::uint64_t /*seed*/>> {
};

TEST_P(CounterConcurrency, ConcurrentAddsSumCorrectly) {
    const auto [proto, K, seed] = GetParam();
    System sys(proto);
    // Slot s's leaf is homed at pid s, as A_f homes reader leaves; only
    // Protocol::Dsm reads the owner.
    FArraySimCounter c(sys.memory(), "c", K, /*owner_base=*/ProcId{0});
    std::int64_t expected = 0;
    constexpr int kAdds = 8;
    for (std::uint32_t s = 0; s < K; ++s) {
        Process& p = sys.add_process(Role::Reader);
        ASSERT_EQ(p.id(), ProcId{s});
        // Mixed increments and decrements, different per slot.
        std::vector<std::int64_t> deltas;
        for (int i = 0; i < kAdds; ++i) {
            const std::int64_t d = ((s + i) % 3 == 0)
                                       ? std::int64_t{-1}
                                       : static_cast<std::int64_t>(s % 4 + 1);
            deltas.push_back(d);
            expected += d;
        }
        p.set_task(do_adds(c, p, s, std::move(deltas)));
    }
    sim::RandomScheduler sched(seed);
    const auto result = sim::run(sys, sched, 2'000'000);
    ASSERT_TRUE(result.all_finished);
    sys.check_failures();
    EXPECT_EQ(c.peek_exact(sys.memory()), expected);
    // Propagation guarantee: with all adds complete, the root is exact.
    EXPECT_EQ(c.peek_root(sys.memory()), expected);
    if (proto == Protocol::Dsm) {
        // An add's two leaf steps are local, and it refreshes each level at
        // most twice, four steps a refresh: at most 8 RMRs a level.
        const auto levels = static_cast<std::uint64_t>(std::bit_width(K - 1));
        for (std::uint32_t s = 0; s < K; ++s) {
            EXPECT_LE(sys.memory().rmrs_by(s), kAdds * 8 * levels)
                << "slot " << s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CounterConcurrency,
    ::testing::Combine(::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack, Protocol::Dsm),
                       ::testing::Values(2u, 3u, 5u, 8u),
                       ::testing::Range<std::uint64_t>(0, 5)));

TEST(FArrayCounter, ReaderSeesCompletedAdds) {
    // Linearizability bound: a read that starts after k unit-adds completed
    // (and while no other adds run) returns at least k and at most the
    // number of adds started.
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        System sys(Protocol::WriteBack);
        FArraySimCounter c(sys.memory(), "c", 3);
        Process& a0 = sys.add_process(Role::Reader);
        Process& a1 = sys.add_process(Role::Reader);
        Process& rd = sys.add_process(Role::Reader);
        a0.set_task(do_adds(c, a0, 0, {1, 1, 1, 1}));
        a1.set_task(do_adds(c, a1, 1, {1, 1, 1, 1}));
        auto reads = std::make_unique<std::vector<std::int64_t>>();
        rd.set_task(read_into(c, rd, reads.get(), 6));
        sim::RandomScheduler sched(seed);
        ASSERT_TRUE(sim::run(sys, sched, 100'000).all_finished);
        std::int64_t prev_lower = 0;
        for (const auto v : *reads) {
            EXPECT_GE(v, 0);
            EXPECT_LE(v, 8);
            // Unit increments only: counter values a single reader observes
            // must be non-decreasing over its sequential reads.
            EXPECT_GE(v, prev_lower);
            prev_lower = v;
        }
    }
}

TEST(FArrayCounter, AddIsLogSteps) {
    // Solo add: the number of shared steps must grow logarithmically in K
    // (2 leaf steps + <= 2 refreshes x 4 steps per level).
    std::vector<std::uint64_t> steps_for_k;
    for (const std::uint32_t K : {1u, 2u, 4u, 16u, 64u, 256u, 1024u}) {
        System sys(Protocol::WriteBack);
        FArraySimCounter c(sys.memory(), "c", K);
        Process& p = sys.add_process(Role::Reader);
        p.set_task(do_adds(c, p, 0, {1}));
        sim::RoundRobinScheduler rr;
        const auto result = sim::run(sys, rr, 100'000);
        ASSERT_TRUE(result.all_finished);
        steps_for_k.push_back(result.steps);
    }
    // Solo: every refresh succeeds first try -> exactly 2 + 4*log2(ceil K).
    EXPECT_EQ(steps_for_k[0], 2u);        // K=1: leaf only.
    EXPECT_EQ(steps_for_k[1], 2u + 4u);   // K=2: one level.
    EXPECT_EQ(steps_for_k[2], 2u + 8u);   // K=4.
    EXPECT_EQ(steps_for_k[6], 2u + 40u);  // K=1024: ten levels.
}

TEST(FArrayCounter, ReadIsOneStep) {
    for (const std::uint32_t K : {1u, 64u, 1024u}) {
        System sys(Protocol::WriteBack);
        FArraySimCounter c(sys.memory(), "c", K);
        Process& p = sys.add_process(Role::Reader);
        auto body = [&c](Process& proc) -> SimTask<void> {
            co_await c.read(proc);
        };
        p.set_task(body(p));
        sim::RoundRobinScheduler rr;
        const auto result = sim::run(sys, rr, 1'000);
        ASSERT_TRUE(result.all_finished);
        EXPECT_EQ(result.steps, 1u);
    }
}

// --- Double-refresh ablation -------------------------------------------------
//
// A *single*-refresh propagate is broken: if the refresh CAS fails, the
// update may never reach the root. This reproduces the lost-update schedule
// and is why the construction (and ours) retries once.

// Faulty 2-slot counter: leaf write + ONE root refresh attempt.
class Faulty2Counter {
   public:
    explicit Faulty2Counter(Memory& mem)
        : root_(mem.allocate("f.root")),
          leaf0_(mem.allocate("f.leaf0")),
          leaf1_(mem.allocate("f.leaf1")) {}

    SimTask<void> add(Process& p, std::uint32_t slot, std::int64_t delta) {
        using C = FArraySimCounter;  // For its node word codec.
        const VarId leaf = slot == 0 ? leaf0_ : leaf1_;
        const Word cur = co_await p.read(leaf);
        co_await p.write(leaf, C::pack(0, static_cast<std::int32_t>(
                                              C::value_of(cur) + delta)));
        // Single refresh -- the bug.
        const Word old = co_await p.read(root_);
        const std::int64_t l = C::value_of(co_await p.read(leaf0_));
        const std::int64_t r = C::value_of(co_await p.read(leaf1_));
        co_await p.cas(root_, old,
                       C::pack(C::version_of(old) + 1,
                               static_cast<std::int32_t>(l + r)));
        // No retry on failure.
    }

    [[nodiscard]] std::int64_t root_value(const Memory& mem) const {
        return FArraySimCounter::value_of(mem.peek(root_));
    }

   private:
    VarId root_, leaf0_, leaf1_;
};

TEST(FArrayCounter, SingleRefreshLosesUpdates) {
    // Search schedules for a lost update with the faulty counter; the
    // double-refresh version must never lose one on the same schedules.
    bool found_loss = false;
    for (std::uint64_t seed = 0; seed < 200 && !found_loss; ++seed) {
        System sys(Protocol::WriteThrough);
        Faulty2Counter c(sys.memory());
        Process& p0 = sys.add_process(Role::Reader);
        Process& p1 = sys.add_process(Role::Reader);
        auto one_add = [&c](Process& p, std::uint32_t slot) -> SimTask<void> {
            co_await c.add(p, slot, 1);
        };
        p0.set_task(one_add(p0, 0));
        p1.set_task(one_add(p1, 1));
        sim::RandomScheduler sched(seed);
        ASSERT_TRUE(sim::run(sys, sched, 10'000).all_finished);
        if (c.root_value(sys.memory()) != 2) {
            found_loss = true;
        }
    }
    EXPECT_TRUE(found_loss)
        << "single-refresh counter never lost an update in 200 schedules";

    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        System sys(Protocol::WriteThrough);
        FArraySimCounter c(sys.memory(), "c", 2);
        Process& p0 = sys.add_process(Role::Reader);
        Process& p1 = sys.add_process(Role::Reader);
        p0.set_task(do_adds(c, p0, 0, {1}));
        p1.set_task(do_adds(c, p1, 1, {1}));
        sim::RandomScheduler sched(seed);
        ASSERT_TRUE(sim::run(sys, sched, 10'000).all_finished);
        ASSERT_EQ(c.peek_root(sys.memory()), 2);
    }
}

// --- DSM placement: homed leaves ---------------------------------------------
//
// A_f builds every C[i] and W[i] with an owner_base, so under Protocol::Dsm
// each reader's leaf lives in its own segment and the owner's leaf steps
// are free (CounterConcurrency runs the same placement concurrently).

TEST(FArrayCounter, SoloAddUnderDsmPaysNoRmrOnItsOwnLeaf) {
    for (const std::uint32_t K : {1u, 2u, 4u, 16u, 64u}) {
        System sys(Protocol::Dsm);
        FArraySimCounter c(sys.memory(), "c", K, /*owner_base=*/ProcId{0});
        Process& p = sys.add_process(Role::Reader);
        p.set_task(do_adds(c, p, 0, {1}));
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 100'000).all_finished);
        EXPECT_EQ(c.peek_root(sys.memory()), 1) << "K=" << K;
        // The leaf read and write are local. Each level's refresh reads the
        // node and both children and CASes the node: four remote steps,
        // except the bottom level's read of the caller's own leaf.
        const auto levels = static_cast<std::uint64_t>(std::bit_width(K) - 1);
        EXPECT_EQ(sys.memory().rmrs_by(p.id()),
                  levels == 0 ? 0u : 4 * levels - 1)
            << "K=" << K;
    }
}

// --- Every simulated step, pinned --------------------------------------------
//
// K adders on one counter, each slot alternating adds and reads, under
// seeded random schedules (tests/step_digest.hpp). K = 3 and 5 have padding
// leaves, K = 8 none; the Dsm rows home each leaf at its slot's process.

SimTask<void> adds_and_reads(FArraySimCounter& c, Process& p,
                             std::uint32_t slot) {
    for (const std::int64_t d : {std::int64_t{1}, std::int64_t{slot} + 1,
                                 std::int64_t{-1}, std::int64_t{2}}) {
        co_await c.add(p, slot, d);
        co_await c.read(p);
    }
}

TEST(FArrayCounterStepDigest, ContendedAddsArePinned) {
    struct Case {
        Protocol proto;
        std::uint32_t k;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t steps;
    };
    const Case cases[] = {
        {Protocol::WriteBack, 3u, 0, 0x0d37dc3698ac7bcbull, 168},
        {Protocol::WriteBack, 3u, 1, 0xf23f6eb32bfac136ull, 156},
        {Protocol::WriteBack, 5u, 0, 0xf7d657f5b15457aaull, 364},
        {Protocol::WriteBack, 5u, 1, 0x3db4154860ad5b26ull, 376},
        {Protocol::WriteBack, 8u, 0, 0x4555d62027d45a9eull, 620},
        {Protocol::WriteBack, 8u, 1, 0x855552281e071874ull, 612},
        {Protocol::Dsm, 3u, 0, 0x3d8ed16c649e0febull, 168},
        {Protocol::Dsm, 3u, 1, 0xf9d14b56937dcc17ull, 156},
        {Protocol::Dsm, 5u, 0, 0xb0089cfdd9f7924aull, 364},
        {Protocol::Dsm, 5u, 1, 0x52d1efea85bd2b47ull, 376},
        {Protocol::Dsm, 8u, 0, 0x3ea93c29a51d98beull, 620},
        {Protocol::Dsm, 8u, 1, 0x370e366d7f52b3b4ull, 612},
    };
    for (const Case& c : cases) {
        const testkit::DigestRun r = testkit::digest_run(
            c.proto,
            [&](System& sys) {
                auto ctr = std::make_shared<FArraySimCounter>(
                    sys.memory(), "c", c.k, ProcId{0});
                for (std::uint32_t s = 0; s < c.k; ++s) {
                    Process& p = sys.add_process(Role::Reader);
                    p.set_task(adds_and_reads(*ctr, p, s));
                }
                return std::shared_ptr<void>(ctr);
            },
            c.seed, /*hash_names=*/true, 1'000'000);
        const std::string label = to_string(c.proto) + " K=" +
                                  std::to_string(c.k) + " seed " +
                                  std::to_string(c.seed);
        EXPECT_TRUE(r.finished) << label;
        EXPECT_EQ(r.steps, c.steps) << label;
        EXPECT_EQ(r.digest, c.digest) << label;
    }
}

// --- Naive baseline ----------------------------------------------------------

SimTask<void> naive_adds(NaiveSimCounter& c, Process& p, std::uint32_t slot) {
    for (int i = 0; i < 10; ++i) {
        co_await c.add(p, slot, 2);
    }
}

TEST(NaiveCounter, ConcurrentAddsSumCorrectly) {
    System sys(Protocol::WriteBack);
    NaiveSimCounter c(sys.memory(), "naive");
    std::int64_t expected = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        Process& p = sys.add_process(Role::Reader);
        p.set_task(naive_adds(c, p, s));
        expected += 20;
    }
    sim::RandomScheduler sched(99);
    ASSERT_TRUE(sim::run(sys, sched, 1'000'000).all_finished);
    EXPECT_EQ(c.peek_exact(sys.memory()), expected);
}

}  // namespace
}  // namespace rwr::counter
