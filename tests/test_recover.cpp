// Recoverable lock tier unit tests: crash-restart process semantics and
// cache eviction, recoverable mutex stage transitions, RME checker teeth
// (a deliberately broken scenario MUST trip it), bounded-recovery
// measurement, and --jobs bit-identity of the recoverable sweep cells.
// The exhaustive schedule-space arguments live in test_recover_explore.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/parallel.hpp"
#include "recover/recover_experiment.hpp"
#include "recover/recoverable_mutex.hpp"
#include "recover/recoverable_rwlock.hpp"
#include "recover/rme_checker.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr {
namespace {

using recover::RecoverableTournamentMutex;
using recover::RecoverExperimentConfig;
using recover::RecoverExperimentResult;
using recover::RecoverLockKind;
using recover::RecoveryOutcome;
using recover::RmeChecker;
using sim::FaultInjector;
using sim::FaultPlan;
using sim::Process;
using sim::Role;
using sim::System;

constexpr int kRecoverIdx = static_cast<int>(Section::Recover);

// ---- Crash-restart process semantics ---------------------------------------

sim::SimTask<void> two_writes(Process& p, VarId a, VarId b) {
    p.set_section(Section::Entry);
    co_await p.write(a, 1);
    co_await p.write(b, 2);
    p.set_section(Section::Remainder);
}

sim::SimTask<void> copy_var(Process& p, VarId from, VarId to) {
    const Word seen = co_await p.read(from);
    co_await p.write(to, seen);
    p.set_section(Section::Remainder);
}

TEST(CrashRestart, WipesPrivateStateButKeepsSharedMemory) {
    System sys(Protocol::WriteBack);
    const VarId a = sys.memory().allocate("a");
    const VarId b = sys.memory().allocate("b");
    const VarId c = sys.memory().allocate("c");
    Process& p = sys.add_process(Role::Writer);
    p.set_task(two_writes(p, a, b));
    int factory_calls = 0;
    p.set_restart_factory([&factory_calls, a, c](Process& q) {
        ++factory_calls;
        // Recovery sees the pre-crash write: copy a into c to prove it.
        return copy_var(q, a, c);
    });
    ASSERT_TRUE(p.restartable());

    // The fault fires after the first Entry step: the a-write's effect is
    // durable, but the coroutine dies without resuming, so b is never
    // written -- the continuation was private state and the crash wiped it.
    FaultInjector injector(
        sys, FaultPlan{}.crash_restart(/*victim=*/0, Section::Entry, 1));
    sys.add_observer(&injector);

    sim::RoundRobinScheduler sched;
    const auto rr = sim::run(sys, sched, /*max_steps=*/100);
    sys.check_failures();

    EXPECT_TRUE(rr.all_finished);
    EXPECT_EQ(injector.num_fired(), 1u);
    EXPECT_EQ(factory_calls, 1);
    EXPECT_EQ(p.restarts(), 1u);
    EXPECT_EQ(p.crashed_in(), Section::Entry);
    EXPECT_EQ(sys.memory().peek(a), 1u);  // Durable.
    EXPECT_EQ(sys.memory().peek(b), 0u);  // Lost with the coroutine.
    EXPECT_EQ(sys.memory().peek(c), 1u);  // Recovery read the durable value.
}

TEST(CrashRestart, WithoutAFactoryIsAnError) {
    System sys(Protocol::WriteBack);
    const VarId a = sys.memory().allocate("a");
    const VarId b = sys.memory().allocate("b");
    Process& p = sys.add_process(Role::Writer);
    p.set_task(two_writes(p, a, b));
    EXPECT_FALSE(p.restartable());
    EXPECT_THROW(p.crash_restart(), std::logic_error);
}

TEST(CrashRestart, EvictAllDropsEveryCachedCopy) {
    Memory mem(Protocol::WriteBack);
    const VarId shared = mem.allocate("shared");
    const VarId excl = mem.allocate("excl");
    // p0 reads one variable (shared copy) and writes another (exclusive).
    EXPECT_TRUE(mem.apply(0, Op::read(shared)).rmr);
    EXPECT_FALSE(mem.apply(0, Op::read(shared)).rmr);  // Cache hit.
    mem.apply(0, Op::write(excl, 7));
    ASSERT_TRUE(mem.cached(0, shared));
    ASSERT_TRUE(mem.cached_exclusive(0, excl));

    mem.evict_all(0);

    // Both copies are gone -- the restarted process re-fetches everything --
    // but the *values* survive: eviction models a cold cache, not data loss.
    EXPECT_FALSE(mem.cached(0, shared));
    EXPECT_FALSE(mem.cached(0, excl));
    EXPECT_TRUE(mem.apply(0, Op::read(shared)).rmr);
    EXPECT_EQ(mem.peek(excl), 7u);
}

// ---- Recoverable mutex stage transitions -----------------------------------
// stage_of() peeks shared memory without taking a simulated step, so a probe
// coroutine can observe its own stage word at section boundaries.

struct MutexRig {
    System sys{Protocol::WriteBack};
    std::unique_ptr<RecoverableTournamentMutex> mx;
    explicit MutexRig(std::uint32_t m) {
        mx = std::make_unique<RecoverableTournamentMutex>(sys.memory(), "mx",
                                                          m);
        sys.add_process(Role::Writer);
    }
};

sim::SimTask<void> stage_probe(RecoverableTournamentMutex& mx, System& sys,
                               Process& p, std::vector<Word>& observed) {
    observed.push_back(mx.stage_of(sys.memory(), 0));  // Before entry.
    co_await mx.enter(p, 0);
    observed.push_back(mx.stage_of(sys.memory(), 0));  // Inside the CS.
    co_await mx.exit_slot(p, 0);
    observed.push_back(mx.stage_of(sys.memory(), 0));  // Back to idle.
}

TEST(RecoverableMutex, StageWordTracksThePassagePhases) {
    MutexRig rig(/*m=*/2);
    Process& p = rig.sys.process(0);
    std::vector<Word> observed;
    p.set_task(stage_probe(*rig.mx, rig.sys, p, observed));
    sim::run_solo(rig.sys, 0, /*max_steps=*/1000);
    ASSERT_TRUE(p.finished());
    ASSERT_EQ(observed.size(), 3u);
    EXPECT_EQ(observed[0], RecoverableTournamentMutex::kIdle);
    EXPECT_EQ(observed[1], RecoverableTournamentMutex::kInCS);
    EXPECT_EQ(observed[2], RecoverableTournamentMutex::kIdle);
}

sim::SimTask<void> recover_only(RecoverableTournamentMutex& mx, Process& p,
                                RecoveryOutcome& out) {
    co_await mx.recover_slot(p, 0, out);
}

TEST(RecoverableMutex, RecoverOnIdleReportsNothingToRepair) {
    MutexRig rig(/*m=*/2);
    Process& p = rig.sys.process(0);
    RecoveryOutcome out = RecoveryOutcome::InCriticalSection;
    p.set_task(recover_only(*rig.mx, p, out));
    sim::run_solo(rig.sys, 0, /*max_steps=*/1000);
    ASSERT_TRUE(p.finished());
    EXPECT_EQ(out, RecoveryOutcome::None);
}

sim::SimTask<void> enter_then_recover(RecoverableTournamentMutex& mx,
                                      Process& p, RecoveryOutcome& out,
                                      std::uint64_t& recover_steps) {
    co_await mx.enter(p, 0);
    // Measure the InCS recovery path in isolation via the per-section step
    // counters (stats are recorded before the coroutine resumes, so the
    // delta read here already includes recover_slot's last step).
    p.set_section(Section::Recover);
    const std::uint64_t before = p.stats().steps[kRecoverIdx];
    co_await mx.recover_slot(p, 0, out);
    recover_steps = p.stats().steps[kRecoverIdx] - before;
}

TEST(RecoverableMutex, RecoverInsideTheCSIsConstantTime) {
    // Stage InCS -> the CSR-critical path: recovery must re-assert lock
    // ownership in O(1), not re-run the entry.
    MutexRig rig(/*m=*/2);
    Process& p = rig.sys.process(0);
    RecoveryOutcome out = RecoveryOutcome::None;
    std::uint64_t recover_steps = 0;
    p.set_task(enter_then_recover(*rig.mx, p, out, recover_steps));
    sim::run_solo(rig.sys, 0, /*max_steps=*/1000);
    ASSERT_TRUE(p.finished());
    EXPECT_EQ(out, RecoveryOutcome::InCriticalSection);
    EXPECT_LE(recover_steps, 2u);
    EXPECT_EQ(rig.mx->stage_of(rig.sys.memory(), 0),
              RecoverableTournamentMutex::kInCS);
}

TEST(RecoverableRWLock, RejectsGroupsWiderThanAWord) {
    System sys(Protocol::WriteBack);
    // f=1 puts all n readers in one group: n > 64 cannot fit one presence
    // bit per member in a 64-bit group word.
    EXPECT_THROW(recover::RecoverableRWLock(sys.memory(), "rrw", /*n=*/65,
                                            /*m=*/1, /*f=*/1),
                 std::invalid_argument);
    EXPECT_NO_THROW(recover::RecoverableRWLock(sys.memory(), "rrw2",
                                               /*n=*/65, /*m=*/1, /*f=*/2));
}

// ---- RME checker teeth -----------------------------------------------------
// Hand-built broken "protocols" (tasks that set sections without any lock)
// prove the checker actually fires; without these, zero violations in the
// explore tests would be indistinguishable from a checker that checks
// nothing.

sim::SimTask<void> fake_cs_passage(Process& p, std::uint64_t entry_steps,
                                   std::uint64_t cs_steps) {
    p.set_section(Section::Entry);
    for (std::uint64_t i = 0; i < entry_steps; ++i) {
        co_await p.local_step();
    }
    p.set_section(Section::Critical);
    for (std::uint64_t i = 0; i < cs_steps; ++i) {
        co_await p.local_step();
    }
    p.set_section(Section::Exit);
    co_await p.local_step();
    p.set_section(Section::Remainder);
    p.note_passage_complete();
}

sim::SimTask<void> recover_then_remainder(Process& p, std::uint64_t steps) {
    for (std::uint64_t i = 0; i < steps; ++i) {
        co_await p.local_step();
    }
    p.set_section(Section::Remainder);
}

TEST(RmeCheckerTeeth, FlagsMutualExclusionViolationUnderCrashes) {
    System sys(Protocol::WriteBack);
    Process& p0 = sys.add_process(Role::Writer);
    Process& p1 = sys.add_process(Role::Writer);
    p0.set_task(fake_cs_passage(p0, 1, 5));
    p1.set_task(fake_cs_passage(p1, 1, 5));
    RmeChecker::Options opts;
    opts.throw_on_violation = false;
    RmeChecker checker(opts);
    sys.add_observer(&checker);

    sim::RoundRobinScheduler sched;
    sim::run(sys, sched, /*max_steps=*/100);
    sys.check_failures();

    EXPECT_GT(checker.violations(), 0u);
    EXPECT_NE(checker.first_violation().find("mutual exclusion"),
              std::string::npos);
}

TEST(RmeCheckerTeeth, FlagsConflictingEntryBeforeCrashedProcessReenters) {
    // p0 crashes inside its (fake) CS and its recovery never re-enters;
    // p1 -- held in a long entry section until after the crash -- then
    // waltzes into the CS. That is precisely a Critical-Section Reentry
    // violation and the checker must say so. (The two are never in the CS
    // simultaneously, so the plain ME predicate stays silent.)
    System sys(Protocol::WriteBack);
    Process& p0 = sys.add_process(Role::Writer);
    Process& p1 = sys.add_process(Role::Writer);
    p0.set_task(fake_cs_passage(p0, 1, 8));
    p0.set_restart_factory(
        [](Process& q) { return recover_then_remainder(q, 2); });
    p1.set_task(fake_cs_passage(p1, 6, 3));
    FaultInjector injector(
        sys, FaultPlan{}.crash_restart(/*victim=*/0, Section::Critical, 2));
    sys.add_observer(&injector);
    RmeChecker::Options opts;
    opts.throw_on_violation = false;
    RmeChecker checker(opts);
    sys.add_observer(&checker);

    sim::RoundRobinScheduler sched;
    sim::run(sys, sched, /*max_steps=*/200);
    sys.check_failures();

    EXPECT_EQ(injector.num_fired(), 1u);
    EXPECT_EQ(checker.total_restarts(), 1u);
    EXPECT_GT(checker.violations(), 0u);
    EXPECT_NE(checker.first_violation().find("CS Reentry"),
              std::string::npos);
}

TEST(RmeCheckerTeeth, FlagsRecoveryExceedingTheConfiguredBound) {
    System sys(Protocol::WriteBack);
    Process& p0 = sys.add_process(Role::Writer);
    p0.set_task(fake_cs_passage(p0, 1, 2));
    p0.set_restart_factory(
        [](Process& q) { return recover_then_remainder(q, 10); });
    FaultInjector injector(
        sys, FaultPlan{}.crash_restart(/*victim=*/0, Section::Critical, 1));
    sys.add_observer(&injector);
    RmeChecker::Options opts;
    opts.throw_on_violation = false;
    opts.recovery_step_bound = 3;
    RmeChecker checker(opts);
    sys.add_observer(&checker);

    sim::RoundRobinScheduler sched;
    sim::run(sys, sched, /*max_steps=*/200);
    sys.check_failures();

    EXPECT_GT(checker.violations(), 0u);
    EXPECT_NE(checker.first_violation().find("bounded recovery"),
              std::string::npos);
    EXPECT_GT(checker.max_recovery_steps(), 3u);
}

TEST(RmeCheckerTeeth, FlagsCumulativeChainRecoveryAcrossNestedCrashes) {
    // Two chained recoveries of 2 and 5 steps: each episode individually
    // respects a per-episode bound of 5, but the crash CHAIN accumulates
    // 7 Recover steps -- only the chain bound can see it. This is the
    // Chan-Woelfel-style adversary the plain bound is blind to.
    System sys(Protocol::WriteBack);
    Process& p0 = sys.add_process(Role::Writer);
    p0.set_task(fake_cs_passage(p0, 1, 2));
    p0.set_restart_factory(
        [](Process& q) { return recover_then_remainder(q, 5); });
    FaultInjector injector(
        sys, FaultPlan{}
                 .crash_restart(/*victim=*/0, Section::Critical, 1)
                 .crash_restart(/*victim=*/0, Section::Recover, 2,
                                /*min_restarts=*/1));
    sys.add_observer(&injector);
    RmeChecker::Options opts;
    opts.throw_on_violation = false;
    opts.recovery_step_bound = 5;        // Each episode fits...
    opts.chain_recovery_step_bound = 6;  // ...the chain does not.
    RmeChecker checker(opts);
    sys.add_observer(&checker);

    sim::RoundRobinScheduler sched;
    sim::run(sys, sched, /*max_steps=*/200);
    sys.check_failures();

    EXPECT_EQ(injector.num_fired(), 2u);
    EXPECT_EQ(checker.total_restarts(), 2u);
    EXPECT_LE(checker.max_recovery_steps(), 5u);
    EXPECT_EQ(checker.max_chain_recovery_steps(), 7u);
    EXPECT_GT(checker.violations(), 0u);
    EXPECT_NE(checker.first_violation().find("bounded chain recovery"),
              std::string::npos)
        << checker.first_violation();
}

sim::SimTask<void> recover_then_passage(Process& p, std::uint64_t rec_steps,
                                        std::uint64_t cs_steps) {
    for (std::uint64_t i = 0; i < rec_steps; ++i) {
        co_await p.local_step();  // Still in Section::Recover.
    }
    // An inline passage, so a later-generation fault keyed to Critical can
    // fire after this recovery completed.
    p.set_section(Section::Entry);
    co_await p.local_step();
    p.set_section(Section::Critical);
    for (std::uint64_t i = 0; i < cs_steps; ++i) {
        co_await p.local_step();
    }
    p.set_section(Section::Exit);
    co_await p.local_step();
    p.set_section(Section::Remainder);
    p.note_passage_complete();
}

TEST(RmeCheckerTeeth, ChainCounterResetsOnANormalCrash) {
    // Same two-crash shape, but the second crash lands in the CRITICAL
    // section of the recovered passage, not inside Recover: the chain
    // latch resets, the two 5-step recoveries never sum, and the chain
    // bound of 6 holds. Distinguishes "many crashes" (fine) from "crashes
    // during recovery" (the chain).
    System sys(Protocol::WriteBack);
    Process& p0 = sys.add_process(Role::Writer);
    p0.set_task(fake_cs_passage(p0, 1, 4));
    p0.set_restart_factory([](Process& q) {
        return recover_then_passage(q, /*rec_steps=*/5, /*cs_steps=*/3);
    });
    FaultInjector injector(
        sys, FaultPlan{}
                 .crash_restart(/*victim=*/0, Section::Critical, 1)
                 .crash_restart(/*victim=*/0, Section::Critical, 2,
                                /*min_restarts=*/1)
                 .require_all_fired());
    sys.add_observer(&injector);
    RmeChecker::Options opts;
    opts.throw_on_violation = false;
    opts.chain_recovery_step_bound = 6;
    RmeChecker checker(opts);
    sys.add_observer(&checker);

    sim::RoundRobinScheduler sched;
    sim::run(sys, sched, /*max_steps=*/300);
    sys.check_failures();
    injector.assert_all_fired();  // Both generations really fired.

    EXPECT_EQ(checker.total_restarts(), 2u);
    EXPECT_EQ(checker.max_chain_recovery_steps(), 5u);
    EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
}

// ---- Experiment-level behaviour --------------------------------------------

RecoverExperimentConfig base_cfg(RecoverLockKind kind) {
    RecoverExperimentConfig cfg;
    cfg.lock = kind;
    cfg.n = (kind == RecoverLockKind::Mutex ||
             kind == RecoverLockKind::JJJMutex)
                ? 0
                : 2;
    cfg.m = 2;
    cfg.f = 1;
    cfg.passages = 2;
    cfg.cs_steps = 2;
    cfg.sched = harness::SchedKind::RoundRobin;
    cfg.max_steps = 100000;
    return cfg;
}

TEST(RecoverExperiment, CrashInsideTheCSRecoversWithBoundedRecovery) {
    // The Golab-Ramaraju InCS path: recovery re-asserts ownership in O(1)
    // steps, so even a tight bound passes.
    for (const auto kind : {RecoverLockKind::Mutex, RecoverLockKind::RwLock}) {
        auto cfg = base_cfg(kind);
        cfg.faults.crash_restart(/*victim=*/0, Section::Critical, 1);
        cfg.recovery_step_bound = 2;
        const auto res = recover::run_recover_experiment(cfg);
        EXPECT_TRUE(res.finished) << to_string(kind);
        EXPECT_EQ(res.restarts, 1u) << to_string(kind);
        EXPECT_EQ(res.me_violations, 0u) << to_string(kind);
        EXPECT_EQ(res.rme_violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
        EXPECT_LE(res.max_recovery_steps, 2u) << to_string(kind);
        EXPECT_GE(res.total_passages,
                  cfg.passages * (kind == RecoverLockKind::Mutex
                                      ? cfg.m
                                      : cfg.n + cfg.m))
            << to_string(kind);
    }
}

TEST(RecoverExperiment, CrashMidExitFinishesTheReleaseDuringRecovery) {
    for (const auto kind : {RecoverLockKind::Mutex, RecoverLockKind::RwLock}) {
        auto cfg = base_cfg(kind);
        cfg.faults.crash_restart(/*victim=*/0, Section::Exit, 1);
        const auto res = recover::run_recover_experiment(cfg);
        EXPECT_TRUE(res.finished) << to_string(kind);
        EXPECT_EQ(res.restarts, 1u) << to_string(kind);
        EXPECT_EQ(res.me_violations, 0u) << to_string(kind);
        EXPECT_EQ(res.rme_violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
    }
}

TEST(RecoverExperiment, SurvivesACrashStormUnderRandomScheduling) {
    for (const auto kind : {RecoverLockKind::Mutex, RecoverLockKind::RwLock}) {
        auto cfg = base_cfg(kind);
        cfg.sched = harness::SchedKind::Random;
        cfg.seed = 17;
        cfg.passages = 3;
        const std::uint32_t procs =
            kind == RecoverLockKind::Mutex ? cfg.m : cfg.n + cfg.m;
        // Two crashes per process, spread over sections.
        static constexpr Section kSecs[3] = {Section::Entry, Section::Critical,
                                             Section::Exit};
        for (std::uint32_t i = 0; i < 2 * procs; ++i) {
            cfg.faults.crash_restart(i % procs, kSecs[i % 3], 1 + i / 3);
        }
        const auto res = recover::run_recover_experiment(cfg);
        EXPECT_TRUE(res.finished) << to_string(kind);
        EXPECT_EQ(res.restarts, 2u * procs) << to_string(kind);
        EXPECT_EQ(res.me_violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
        EXPECT_EQ(res.rme_violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
    }
}

TEST(RecoverExperiment, NestedCrashIsAddressableViaMinRestarts) {
    // {Recover, 1, min_restarts 1} names "one step into the recovery of
    // the first crash" exactly; the run must survive the chain with the
    // chain accumulator visible in the result.
    for (const auto kind :
         {RecoverLockKind::Mutex, RecoverLockKind::JJJMutex,
          RecoverLockKind::RwLock}) {
        auto cfg = base_cfg(kind);
        cfg.faults.crash_restart(/*victim=*/0, Section::Critical, 1);
        cfg.faults.crash_restart(/*victim=*/0, Section::Recover, 1,
                                 /*min_restarts=*/1);
        cfg.faults.require_all_fired();
        const auto res = recover::run_recover_experiment(cfg);
        EXPECT_TRUE(res.finished) << to_string(kind);
        EXPECT_EQ(res.restarts, 2u) << to_string(kind);
        EXPECT_EQ(res.faults_fired, 2u) << to_string(kind);
        EXPECT_EQ(res.me_violations + res.rme_violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
        EXPECT_GE(res.max_chain_recovery_steps, res.max_recovery_steps)
            << to_string(kind);
        EXPECT_GT(res.max_chain_recovery_steps, 0u) << to_string(kind);
    }
}

TEST(RecoverExperiment, RecoverySummaryCountsEveryEpisode) {
    auto cfg = base_cfg(RecoverLockKind::Mutex);
    cfg.faults.crash_restart(/*victim=*/0, Section::Entry, 1);
    cfg.faults.crash_restart(/*victim=*/1, Section::Critical, 1);
    cfg.faults.require_all_fired();
    const auto res = recover::run_recover_experiment(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_EQ(res.recovery.episodes, 2u);
    EXPECT_GT(res.recovery.max_steps, 0u);
    EXPECT_GE(static_cast<double>(res.recovery.max_rmrs),
              res.recovery.mean_rmrs);
    EXPECT_GE(static_cast<double>(res.recovery.max_steps),
              res.recovery.mean_steps);
    EXPECT_EQ(res.stalled_at_exit, 0u);
}

TEST(RecoverExperiment, RequireAllFiredPropagatesToTheRunner) {
    auto cfg = base_cfg(RecoverLockKind::Mutex);
    cfg.faults.crash_restart(/*victim=*/0, Section::Entry, 9999);
    cfg.faults.require_all_fired();
    EXPECT_THROW(recover::run_recover_experiment(cfg), std::runtime_error);
    // The same unfired placement without the flag is ordinary data.
    cfg.faults.require_all_fired(false);
    const auto res = recover::run_recover_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.faults_fired, 0u);
}

bool same_deterministic_fields(const RecoverExperimentResult& a,
                               const RecoverExperimentResult& b) {
    return a.finished == b.finished && a.steps == b.steps &&
           a.total_passages == b.total_passages && a.restarts == b.restarts &&
           a.max_recovery_steps == b.max_recovery_steps &&
           a.max_chain_recovery_steps == b.max_chain_recovery_steps &&
           a.recovery.episodes == b.recovery.episodes &&
           a.recovery.mean_rmrs == b.recovery.mean_rmrs &&
           a.recovery.max_rmrs == b.recovery.max_rmrs &&
           a.faults_fired == b.faults_fired &&
           a.stalled_at_exit == b.stalled_at_exit &&
           a.me_violations == b.me_violations &&
           a.rme_violations == b.rme_violations && a.schedule == b.schedule &&
           a.readers.num_passages == b.readers.num_passages &&
           a.readers.mean_passage_rmrs == b.readers.mean_passage_rmrs &&
           a.writers.num_passages == b.writers.num_passages &&
           a.writers.mean_passage_rmrs == b.writers.mean_passage_rmrs;
}

TEST(RecoverExperiment, SweepCellsAreBitIdenticalAcrossJobCounts) {
    // The bench_recoverable acceptance: which worker runs a cell cannot
    // influence the cell (everything except wall_ms is a pure function of
    // the config). Mixed grid over all four lock kinds, schedules recorded
    // to sharpen the check.
    std::vector<RecoverExperimentConfig> cfgs;
    for (const auto kind :
         {RecoverLockKind::Mutex, RecoverLockKind::JJJMutex,
          RecoverLockKind::RwLock, RecoverLockKind::RwLockJJJ}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            auto cfg = base_cfg(kind);
            cfg.sched = harness::SchedKind::Random;
            cfg.seed = seed;
            cfg.record_schedule = true;
            cfg.faults.crash_restart(0, Section::Critical, 1);
            cfg.faults.crash_restart(1, Section::Entry, 2);
            cfgs.push_back(cfg);
        }
    }
    std::vector<RecoverExperimentResult> r1(cfgs.size());
    std::vector<RecoverExperimentResult> r8(cfgs.size());
    harness::parallel_for(cfgs.size(), /*jobs=*/1, [&](std::size_t i) {
        r1[i] = recover::run_recover_experiment(cfgs[i]);
    });
    harness::parallel_for(cfgs.size(), /*jobs=*/8, [&](std::size_t i) {
        r8[i] = recover::run_recover_experiment(cfgs[i]);
    });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_TRUE(same_deterministic_fields(r1[i], r8[i])) << "cell " << i;
        EXPECT_TRUE(r1[i].finished) << "cell " << i;
        EXPECT_EQ(r1[i].me_violations + r1[i].rme_violations, 0u)
            << "cell " << i << ": " << r1[i].first_violation;
    }
}

}  // namespace
}  // namespace rwr
