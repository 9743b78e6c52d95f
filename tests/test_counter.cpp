// Tests for the K-process f-array counter (src/counter): correctness under
// sequential and concurrent use, step complexity (Θ(log K) add, O(1) read),
// the double-refresh propagation guarantee, and the DSM placement A_f uses
// (each slot's leaf homed at its owner).
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "counter/sim_counter.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

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

TEST(FArrayCounter, SequentialAddsAndReads) {
    System sys(Protocol::WriteThrough);
    FArraySimCounter c(sys.memory(), "c", 4);
    Process& p = sys.add_process(Role::Reader);
    std::vector<std::int64_t> reads;

    auto body = [&](Process& proc) -> SimTask<void> {
        co_await c.add(proc, 0, 5);
        reads.push_back(co_await c.read(proc));
        co_await c.add(proc, 0, -2);
        reads.push_back(co_await c.read(proc));
        co_await c.add(proc, 0, 10);
        reads.push_back(co_await c.read(proc));
    };
    p.set_task(body(p));
    sim::RoundRobinScheduler rr;
    const auto result = sim::run(sys, rr, 10'000);
    ASSERT_TRUE(result.all_finished);
    EXPECT_EQ(reads, (std::vector<std::int64_t>{5, 3, 13}));
}

TEST(FArrayCounter, CapacityOneIsJustALeaf) {
    System sys(Protocol::WriteBack);
    FArraySimCounter c(sys.memory(), "c", 1);
    Process& p = sys.add_process(Role::Reader);
    std::vector<std::int64_t> reads;
    auto body = [&](Process& proc) -> SimTask<void> {
        co_await c.add(proc, 0, 7);
        reads.push_back(co_await c.read(proc));
    };
    p.set_task(body(p));
    sim::RoundRobinScheduler rr;
    sim::run(sys, rr, 1'000);
    EXPECT_EQ(reads, (std::vector<std::int64_t>{7}));
}

TEST(FArrayCounter, RejectsBadArgs) {
    System sys(Protocol::WriteBack);
    EXPECT_THROW(FArraySimCounter(sys.memory(), "c", 0), std::invalid_argument);
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

// --- Double-refresh ablation --------------------------------------------------
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
        const VarId leaf = slot == 0 ? leaf0_ : leaf1_;
        const Word cur = co_await p.read(leaf);
        co_await p.write(leaf, PackedNode::pack(
                                   0, static_cast<std::int32_t>(
                                          PackedNode::value(cur) + delta)));
        // Single refresh -- the bug.
        const Word old = co_await p.read(root_);
        const std::int64_t l = PackedNode::value(co_await p.read(leaf0_));
        const std::int64_t r = PackedNode::value(co_await p.read(leaf1_));
        co_await p.cas(root_, old,
                       PackedNode::pack(PackedNode::version(old) + 1,
                                        static_cast<std::int32_t>(l + r)));
        // No retry on failure.
    }

    [[nodiscard]] std::int64_t root_value(const Memory& mem) const {
        return PackedNode::value(mem.peek(root_));
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

// --- DSM placement: homed leaves ----------------------------------------------
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

// --- Naive baseline ------------------------------------------------------------

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
