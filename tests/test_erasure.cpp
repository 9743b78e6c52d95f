// Tests for the executable erasure lemma (Lemma 3): awareness-closed
// removal of any process from any recorded execution must leave a legal
// execution (all responses unchanged on replay), across random workloads
// and real lock executions; and the legality checker must CATCH removals
// that are not awareness-closed.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "harness/locks.hpp"
#include "knowledge/erasure.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rwr::knowledge {
namespace {

using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

SimTask<void> chatter(Process& p, std::vector<VarId> vars, int rounds,
                      std::uint64_t seed) {
    std::uint64_t x = seed * 2654435761u + 1;
    for (int i = 0; i < rounds; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const VarId v = vars[(x >> 33) % vars.size()];
        switch ((x >> 13) % 4) {
            case 0:
                co_await p.read(v);
                break;
            case 1:
                co_await p.write(v, (x >> 5) % 7);
                break;
            case 2: {
                const Word cur = co_await p.read(v);
                co_await p.cas(v, cur, (cur + 1) % 7);
                break;
            }
            default: {
                const Word cur = co_await p.read(v);
                co_await p.cas(v, cur + 1, 0);  // Usually fails (trivial).
                break;
            }
        }
    }
}

struct RecordedRun {
    std::vector<Word> initial;
    std::vector<sim::TraceStep> steps;
    std::size_t num_processes;
};

RecordedRun record_chatter(Protocol proto, std::uint64_t seed, int procs,
                           int rounds) {
    System sys(proto);
    std::vector<VarId> vars;
    for (int i = 0; i < 5; ++i) {
        vars.push_back(sys.memory().allocate("v" + std::to_string(i)));
    }
    for (int i = 0; i < procs; ++i) {
        Process& p = sys.add_process(Role::Reader);
        p.set_task(chatter(p, vars, rounds, seed * 31 + i));
    }
    sim::TraceRecorder rec(sys.memory());
    sys.add_observer(&rec);
    sim::RandomScheduler sched(seed ^ 0xabcdef);
    sim::run(sys, sched, 1'000'000);
    return {rec.initial_values(), rec.steps(),
            static_cast<std::size_t>(procs)};
}

class ErasureSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {
};

TEST_P(ErasureSweep, AwarenessClosedErasureIsAlwaysLegal) {
    const auto [proto, seed] = GetParam();
    const auto run = record_chatter(proto, seed, 5, 40);
    ASSERT_GT(run.steps.size(), 100u);
    for (ProcId q = 0; q < run.num_processes; ++q) {
        const auto res =
            erase_and_replay(run.initial, run.steps, q, run.num_processes);
        EXPECT_TRUE(res.legal) << "erasing P" << q << ": " << res.detail;
        EXPECT_GT(res.removed, 0u);  // q's own steps at minimum.
        EXPECT_EQ(res.kept + res.removed, run.steps.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErasureSweep,
    ::testing::Combine(::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Range<std::uint64_t>(0, 10)));

TEST(Erasure, CheckerCatchesNonClosedRemovals) {
    // Remove a random non-awareness-closed subset: with contending CAS
    // increments every step matters, so the replay must detect illegality
    // for at least some seeds (the checker is not vacuous).
    int caught = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const auto run = record_chatter(Protocol::WriteBack, seed, 4, 30);
        // Remove exactly one non-trivial write-type step (keep all else).
        std::vector<std::size_t> kept;
        bool removed_one = false;
        for (std::size_t i = 0; i < run.steps.size(); ++i) {
            if (!removed_one && run.steps[i].res.nontrivial &&
                i > run.steps.size() / 3) {
                removed_one = true;
                continue;
            }
            kept.push_back(i);
        }
        ASSERT_TRUE(removed_one);
        const auto res = replay(run.initial, run.steps, kept);
        caught += res.legal ? 0 : 1;
    }
    EXPECT_GT(caught, 15) << "removing a single non-trivial step almost "
                             "always breaks replay legality";
}

TEST(Erasure, LockExecutionsAreErasable) {
    // Lemma 3 applied where the paper applies it: to executions of a
    // reader-writer lock. Record full contended executions of every lock
    // and erase each reader in turn.
    for (const harness::LockKind kind :
         {harness::LockKind::Af, harness::LockKind::Centralized,
          harness::LockKind::Faa}) {
        System sys(Protocol::WriteBack);
        auto lock = harness::make_sim_lock(kind, sys.memory(), 4, 1, 2);
        for (int r = 0; r < 4; ++r) {
            Process& p = sys.add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = 2;
            p.set_task(sim::drive(*lock, p, dc));
        }
        Process& w = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 2;
        w.set_task(sim::drive(*lock, w, dc));

        sim::TraceRecorder rec(sys.memory());
        sys.add_observer(&rec);
        sim::RandomScheduler sched(7);
        ASSERT_TRUE(sim::run(sys, sched, 5'000'000).all_finished);

        for (ProcId q = 0; q < 5; ++q) {
            const auto res =
                erase_and_replay(rec.initial_values(), rec.steps(), q, 5);
            EXPECT_TRUE(res.legal)
                << harness::to_string(kind) << " erasing P" << q << ": "
                << res.detail;
        }
    }
}

TEST(Erasure, EmptyAndTrivialTraces) {
    std::vector<sim::TraceStep> empty;
    const auto res = erase_and_replay({}, empty, 0, 3);
    EXPECT_TRUE(res.legal);
    EXPECT_EQ(res.kept, 0u);
}

}  // namespace
}  // namespace rwr::knowledge
