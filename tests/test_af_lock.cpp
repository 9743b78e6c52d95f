// Correctness tests for the A_f reader-writer lock family (Algorithm 1):
// Mutual Exclusion (random sweeps + exhaustive small-schedule search),
// Deadlock Freedom, Bounded Exit, Concurrent Entering, reader starvation
// freedom, writer starvation demonstration, and RMR sanity.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <tuple>
#include <vector>

#include "core/af_lock_sim.hpp"
#include "harness/experiment.hpp"
#include "sim/explorer.hpp"

namespace rwr::core {
namespace {

using harness::ExperimentConfig;
using harness::LockKind;
using harness::run_experiment;
using harness::SchedKind;
using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

TEST(AfLock, ParamsValidation) {
    System sys(Protocol::WriteBack);
    AfParams bad;
    bad.n = 4;
    bad.m = 1;
    bad.f = 5;  // f > n.
    EXPECT_THROW(AfSimLock(sys.memory(), bad), std::invalid_argument);
}

TEST(AfLock, GroupAssignment) {
    // n=10, f=3 -> K=ceil(10/3)=4; groups: {0..3}, {4..7}, {8..9}.
    System sys(Protocol::WriteBack);
    AfParams params{.n = 10, .m = 1, .f = 3};
    AfSimLock lock(sys.memory(), params);
    EXPECT_EQ(params.group_size(), 4u);
    EXPECT_EQ(lock.group_of(0), 0u);
    EXPECT_EQ(lock.group_of(3), 0u);
    EXPECT_EQ(lock.group_of(4), 1u);
    EXPECT_EQ(lock.group_of(9), 2u);
    EXPECT_EQ(lock.slot_of(9), 1u);
}

TEST(AfLock, SoloReaderPassage) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 1;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 3;
    cfg.sched = SchedKind::RoundRobin;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, 3u);
}

TEST(AfLock, SoloWriterPassage) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 1;
    cfg.sched = SchedKind::RoundRobin;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.writers.num_passages, 1u);
    EXPECT_EQ(res.me_violations, 0u);
}

using AfSweepPoint = std::tuple<Protocol, std::uint32_t /*n*/,
                                std::uint32_t /*m*/, std::uint32_t /*f*/,
                                std::uint64_t /*seed*/>;

class AfSweep : public ::testing::TestWithParam<AfSweepPoint> {};

/// Every valid (f <= n) point of the sweep.
std::vector<AfSweepPoint> af_sweep_grid() {
    std::vector<AfSweepPoint> grid;
    for (const Protocol proto : {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {1u, 2u, 5u, 8u}) {
            for (const std::uint32_t m : {1u, 2u, 3u}) {
                for (const std::uint32_t f : {1u, 2u, 4u, 8u}) {
                    if (f > n) {
                        continue;
                    }
                    for (std::uint64_t seed = 0; seed < 4; ++seed) {
                        grid.emplace_back(proto, n, m, f, seed);
                    }
                }
            }
        }
    }
    return grid;
}

TEST_P(AfSweep, MutualExclusionAndProgress) {
    const auto [proto, n, m, f, seed] = GetParam();
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.m = m;
    cfg.f = f;
    cfg.passages = 4;
    cfg.cs_steps = 2;
    cfg.seed = seed;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished) << "deadlock/livelock suspected";
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, static_cast<std::uint64_t>(n) * 4);
    EXPECT_EQ(res.writers.num_passages, static_cast<std::uint64_t>(m) * 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AfSweep, ::testing::ValuesIn(af_sweep_grid()));

TEST(AfLock, ExhaustiveSmallSchedules_N2M1F1) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteThrough;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
    EXPECT_GT(res.schedules_explored, 500u);
}

TEST(AfLock, ExhaustiveSmallSchedules_N2M1F2) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 2;  // Two singleton groups.
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, ExhaustiveSmallSchedules_N1M2) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteThrough;
    cfg.n = 1;
    cfg.m = 2;
    cfg.f = 1;
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, RandomizedDeepSchedules) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 3;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 3;
    const auto res = sim::explore_random(harness::scenario_factory(cfg),
                                         300, /*seed=*/42, 2'000'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, ReadersShareTheCriticalSection) {
    // The whole point of an RW lock: with a long CS and many readers, the
    // checker must observe genuine reader concurrency.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 6;
    cfg.m = 1;
    cfg.f = 2;
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(AfLock, ConcurrentEnteringStepsBounded) {
    // Paper Section 2.1: with all writers in the remainder section, a
    // reader's entry completes within b of its own steps. A_f's entry is
    // wait-free when no writer signals WAIT: counter add (<= 2 refreshes
    // per level) + one RSIG read. We verify the max entry steps over a
    // heavily contended reader-only run is within the deterministic bound.
    for (const std::uint32_t n : {4u, 16u, 64u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::Af;
        cfg.n = n;
        cfg.m = 1;  // Writer present but performs 0 passages... we model
                    // this by making everyone run, then only checking
                    // readers in a separate writer-free config below.
        cfg.f = 1;
        cfg.passages = 3;
        cfg.seed = 17;
        // Writer-free variant: m must be >= 1 for the lock, so give the
        // writer zero work by setting passages per-process uniformly and
        // running a custom scenario instead.
        sim::System sys(Protocol::WriteBack);
        AfParams params{.n = n, .m = 1, .f = 1};
        AfSimLock lock(sys.memory(), params);
        auto records =
            std::make_unique<std::vector<std::vector<sim::PassageRecord>>>(n);
        for (std::uint32_t r = 0; r < n; ++r) {
            sim::Process& p = sys.add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = 3;
            dc.records = &(*records)[r];
            p.set_task(sim::drive(lock, p, dc));
        }
        sim::RandomScheduler sched(5);
        ASSERT_TRUE(sim::run(sys, sched, 50'000'000).all_finished);

        const std::uint32_t K = params.group_size();
        const auto levels = static_cast<std::uint64_t>(std::bit_width(
                                std::bit_ceil(K)) - 1);
        // add: 2 leaf steps + 2 refreshes x 4 steps per level; +1 RSIG read.
        const std::uint64_t bound = 2 + 2 * 4 * levels + 1;
        for (const auto& recs : *records) {
            for (const auto& rec : recs) {
                EXPECT_LE(rec.delta.steps_in(Section::Entry), bound);
            }
        }
    }
}

TEST(AfLock, BoundedExit) {
    // Bounded Exit: reader and writer exits complete within a deterministic
    // number of own steps regardless of scheduling (no waiting in exit).
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 8;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 4;
    cfg.seed = 11;
    const auto res = run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    const std::uint32_t K = (8 + 1) / 2;  // ceil(8/2)=4.
    const auto levels =
        static_cast<std::uint64_t>(std::bit_width(std::bit_ceil(K)) - 1);
    // Reader exit: C.add (2 + 8*levels) + RSIG read + worst helper
    // (2 counter reads + CAS) or PREENTRY path (read + CAS).
    const std::uint64_t reader_bound = (2 + 8 * levels) + 1 + 3;
    EXPECT_LE(res.readers.max_steps[static_cast<int>(Section::Exit)],
              reader_bound);
    // Writer exit: read WSEQ + write WSEQ + write RSIG + WL exit (1/level).
    const std::uint64_t writer_bound = 3 + 8;
    EXPECT_LE(res.writers.max_steps[static_cast<int>(Section::Exit)],
              writer_bound);
}

TEST(AfLock, NoReaderStarvationUnderFairSchedules) {
    // Lemma 16: readers never starve. Under fair random scheduling with
    // writers continuously cycling, every reader finishes its passages.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 6;
    cfg.m = 3;
    cfg.f = 3;
    cfg.passages = 8;
    cfg.seed = 23;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.readers.num_passages, 48u);
}

SimTask<void> overlapping_reader(sim::SimRWLock& lock, Process& p,
                                 std::uint64_t passages) {
    for (std::uint64_t k = 0; k < passages; ++k) {
        p.set_section(Section::Entry);
        co_await lock.reader_entry(p);
        p.set_section(Section::Critical);
        co_await p.local_step();
        p.set_section(Section::Exit);
        co_await lock.reader_exit(p);
        p.set_section(Section::Remainder);
        p.note_passage_complete();
        // Observable remainder pause, so the test's scheduler can detect
        // the section boundary before the next passage begins.
        co_await p.local_step();
    }
}

TEST(AfLock, WriterCanStarveUnderReaderFlood) {
    // Paper Section 6: "Writers, however, may starve if there are always
    // readers performing passages." We build the adversarial alternation:
    // two readers in one group overlap so C[0] never reaches 0 while the
    // writer sits in its PREENTRY loop.
    sim::System sys(Protocol::WriteBack);
    AfParams params{.n = 2, .m = 1, .f = 1};
    AfSimLock lock(sys.memory(), params);
    Process& r0 = sys.add_process(Role::Reader);
    Process& r1 = sys.add_process(Role::Reader);
    Process& w = sys.add_process(Role::Writer);
    r0.set_task(overlapping_reader(lock, r0, 1'000'000));
    r1.set_task(overlapping_reader(lock, r1, 1'000'000));
    sim::DriveConfig dc;
    dc.passages = 1;
    w.set_task(sim::drive(lock, w, dc));
    sys.start_all();

    // Alternate readers so that at every instant at least one of them is
    // inside a passage (C[0] > 0); give the writer a step regularly.
    auto run_reader_until_cs = [&](Process& r) {
        int guard = 0;
        while (!r.in_cs() && guard++ < 10'000) {
            sys.step(r.id());
        }
        ASSERT_TRUE(r.in_cs());
    };
    auto run_reader_until_remainder = [&](Process& r) {
        int guard = 0;
        while (r.section() != Section::Remainder && guard++ < 10'000) {
            sys.step(r.id());
        }
        ASSERT_EQ(r.section(), Section::Remainder);
    };
    run_reader_until_cs(r0);
    for (int round = 0; round < 200; ++round) {
        run_reader_until_cs(r1);   // Overlap established...
        run_reader_until_remainder(r0);  // ...now r0 may leave.
        for (int i = 0; i < 5; ++i) {
            sys.step(w.id());  // Writer spins in its entry section.
        }
        run_reader_until_cs(r0);
        run_reader_until_remainder(r1);
        for (int i = 0; i < 5; ++i) {
            sys.step(w.id());
        }
    }
    EXPECT_EQ(w.completed_passages(), 0u);
    EXPECT_EQ(w.section(), Section::Entry) << "writer should still be stuck";
    EXPECT_GE(r0.completed_passages() + r1.completed_passages(), 100u);
}

TEST(AfLock, WriterRmrGrowsWithF_ReaderRmrShrinksWithF) {
    // Directional sanity for Theorem 18 (full curves in bench_tradeoff):
    // with n fixed, raising f must raise writer passage RMRs and lower
    // reader passage RMRs.
    constexpr std::uint32_t n = 64;
    double writer_low_f = 0, writer_high_f = 0;
    double reader_low_f = 0, reader_high_f = 0;
    for (const std::uint32_t f : {1u, 64u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::Af;
        cfg.n = n;
        cfg.m = 1;
        cfg.f = f;
        cfg.passages = 2;
        cfg.sched = SchedKind::RoundRobin;
        const auto res = run_experiment(cfg);
        ASSERT_TRUE(res.finished);
        if (f == 1) {
            writer_low_f = res.writers.mean_passage_rmrs;
            reader_low_f = res.readers.mean_passage_rmrs;
        } else {
            writer_high_f = res.writers.mean_passage_rmrs;
            reader_high_f = res.readers.mean_passage_rmrs;
        }
    }
    EXPECT_GT(writer_high_f, 4.0 * writer_low_f);
    EXPECT_GT(reader_low_f, 1.5 * reader_high_f);
}

}  // namespace
}  // namespace rwr::core
