// The parallel sweep runner (harness/parallel.hpp) and the engine
// invariants it leans on:
//   * parallel_for covers every index exactly once and propagates the first
//     exception after the pool joins;
//   * run_experiments returns bit-identical results for --jobs 1 and
//     --jobs 8 -- per-cell RMR tables AND recorded schedules -- because each
//     cell's simulation is single-threaded and seeded (determinism
//     satellite of the engine overhaul);
//   * System's maintained runnable index agrees with a brute-force process
//     scan at every step, including across crashes and stalls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "sim/fault.hpp"
#include "sim/task.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

// ---- parallel_for mechanics ---------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce) {
    for (const unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(257);
        parallel_for(hits.size(), jobs,
                     [&hits](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
        }
    }
}

TEST(ParallelFor, ZeroCountIsANoop) {
    parallel_for(0, 8, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, MoreJobsThanCellsWorks) {
    std::atomic<int> ran{0};
    parallel_for(2, 16, [&ran](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelFor, FirstExceptionIsRethrownAfterJoin) {
    for (const unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        try {
            parallel_for(64, jobs, [&ran](std::size_t i) {
                ran.fetch_add(1);
                if (i == 5) {
                    throw std::runtime_error("cell 5 failed");
                }
                // A dwell per healthy cell: the other workers cannot finish
                // every cell before the failure is recorded.
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            });
            FAIL() << "expected rethrow (jobs=" << jobs << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "cell 5 failed");
        }
        // The failure stops dispatch of further cells; in-flight cells
        // finish. Serially that is exactly cells 0..5.
        if (jobs == 1) {
            EXPECT_EQ(ran.load(), 6);
        } else {
            EXPECT_LT(ran.load(), 64) << "jobs=" << jobs;
        }
    }
}

TEST(ParallelFor, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1u); }

// ---- Determinism: jobs=1 vs jobs=8 --------------------------------------

std::vector<ExperimentConfig> determinism_grid() {
    std::vector<ExperimentConfig> cfgs;
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {4u, 8u, 16u}) {
            ExperimentConfig cfg;
            cfg.lock = LockKind::Af;
            cfg.protocol = proto;
            cfg.n = n;
            cfg.m = 2;
            cfg.f = 2;
            cfg.passages = 2;
            // Random scheduling + recorded schedules: the strictest
            // determinism probe we have -- any cross-thread leakage of RNG
            // or engine state would desynchronize the traces.
            cfg.sched = SchedKind::Random;
            cfg.seed = 42 + n;
            cfg.record_schedule = true;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      std::size_t cell) {
    ASSERT_EQ(a.finished, b.finished) << "cell " << cell;
    EXPECT_EQ(a.steps, b.steps) << "cell " << cell;
    EXPECT_EQ(a.readers.mean_passage_rmrs, b.readers.mean_passage_rmrs)
        << "cell " << cell;
    EXPECT_EQ(a.readers.max_passage_rmrs, b.readers.max_passage_rmrs)
        << "cell " << cell;
    EXPECT_EQ(a.writers.mean_passage_rmrs, b.writers.mean_passage_rmrs)
        << "cell " << cell;
    EXPECT_EQ(a.writers.max_passage_rmrs, b.writers.max_passage_rmrs)
        << "cell " << cell;
    for (int s = 0; s < kNumSections; ++s) {
        EXPECT_EQ(a.readers.mean_rmrs[s], b.readers.mean_rmrs[s])
            << "cell " << cell << " sec " << s;
        EXPECT_EQ(a.writers.mean_rmrs[s], b.writers.mean_rmrs[s])
            << "cell " << cell << " sec " << s;
    }
    EXPECT_EQ(a.me_violations, b.me_violations) << "cell " << cell;
    // Byte-identical schedules: the whole execution, not just aggregates.
    EXPECT_EQ(a.schedule, b.schedule) << "cell " << cell;
}

TEST(Determinism, Jobs1AndJobs8AreBitIdentical) {
    const auto cfgs = determinism_grid();
    const auto seq = run_experiments(cfgs, 1);
    const auto par = run_experiments(cfgs, 8);
    ASSERT_EQ(seq.size(), cfgs.size());
    ASSERT_EQ(par.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expect_identical(seq[i], par[i], i);
    }
}

TEST(Determinism, RepeatedParallelRunsAgree) {
    const auto cfgs = determinism_grid();
    const auto a = run_experiments(cfgs, 8);
    const auto b = run_experiments(cfgs, 8);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        expect_identical(a[i], b[i], i);
    }
}

// ---- Maintained runnable index vs brute force ---------------------------

sim::SimTask<void> ping(rwr::sim::Process& p, VarId v, int steps) {
    for (int i = 0; i < steps; ++i) {
        co_await p.read(v);
    }
}

std::vector<ProcId> brute_force_runnable(const sim::System& sys) {
    std::vector<ProcId> out;
    for (ProcId id = 0; id < sys.num_processes(); ++id) {
        if (sys.process(id).runnable()) {
            out.push_back(id);
        }
    }
    return out;
}

TEST(RunnableIndex, MatchesBruteForceAcrossCrashAndStall) {
    sim::System sys(Protocol::WriteBack);
    const VarId v = sys.memory().allocate("v");
    constexpr int kProcs = 7;
    for (int i = 0; i < kProcs; ++i) {
        sim::Process& p = sys.add_process(sim::Role::Reader);
        p.set_task(ping(p, v, 3 + i));
    }
    EXPECT_TRUE(sys.runnable().empty());  // Nothing started yet.
    sys.start_all();
    EXPECT_EQ(sys.runnable(), brute_force_runnable(sys));

    std::uint64_t salt = 9;
    while (!sys.all_surviving_finished()) {
        const std::vector<ProcId> run = sys.runnable();  // Copy: we mutate.
        ASSERT_FALSE(run.empty());
        // Sprinkle lifecycle transitions over the run.
        if (sys.steps_executed() == 4) {
            sys.process(run.front()).crash();
        }
        if (sys.steps_executed() == 7 && run.size() > 1) {
            sys.process(run.back()).set_stalled(true);
        }
        if (sys.steps_executed() == 11) {
            for (ProcId id = 0; id < sys.num_processes(); ++id) {
                sys.process(id).set_stalled(false);
            }
        }
        const auto fresh = sys.runnable();
        ASSERT_EQ(fresh, brute_force_runnable(sys))
            << "after " << sys.steps_executed() << " steps";
        ASSERT_TRUE(
            std::is_sorted(fresh.begin(), fresh.end()));  // Replay compat.
        if (!fresh.empty()) {
            sys.step(fresh[salt++ % fresh.size()]);
            ASSERT_EQ(sys.runnable(), brute_force_runnable(sys));
        }
    }
    EXPECT_EQ(sys.num_crashed(), 1u);
    EXPECT_FALSE(sys.all_finished());  // One process died mid-task.
    EXPECT_TRUE(sys.runnable().empty());
}

TEST(RunnableIndex, CountsDriveTheExperimentLoopUnderFaults) {
    // End-to-end: full experiments whose driver loop relies on the
    // maintained counters (done_count, crashed_count) instead of scans.
    // A stall is transient -- the run must converge once it expires.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 6;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 2;
    cfg.sched = SchedKind::Random;
    cfg.seed = 7;
    cfg.faults.stall(2, Section::Entry, 1, 40);
    const auto stalled = run_experiment(cfg);
    EXPECT_TRUE(stalled.all_surviving_finished);
    EXPECT_EQ(stalled.crashed, 0u);

    // A crash inside entry starves the blocking lock (A_f is not
    // crash-tolerant); the progress checker must flag it and the crashed
    // counter must report exactly the one victim.
    cfg.faults = sim::FaultPlan{};
    cfg.faults.crash(1, Section::Entry, 2);
    cfg.max_steps = 50'000;
    cfg.progress_window = 2'000;
    const auto crashed = run_experiment(cfg);
    EXPECT_FALSE(crashed.all_surviving_finished);
    EXPECT_EQ(crashed.crashed, 1u);
}

}  // namespace
