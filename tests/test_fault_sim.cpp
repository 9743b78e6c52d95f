// Crash-fault injection and livelock watchdog tests (sim tier).
//
// The A_f lock (like every blocking lock) is not crash-tolerant: a reader
// that dies after announcing itself in C[i] starves every later writer, and
// a writer that dies past line 18 starves every reader. These tests turn
// that from folklore into pinned behaviour: faults are injected at exact
// protocol steps, the ProgressChecker detects the resulting starvation or
// livelock, and a RecordingScheduler trace replayed through ReplayScheduler
// reproduces the stuck execution deterministically.
#include <gtest/gtest.h>

#include <memory>

#include "core/af_lock_sim.hpp"
#include "harness/experiment.hpp"
#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr {
namespace {

using core::AfParams;
using core::AfSimLock;
using sim::FaultInjector;
using sim::FaultPlan;
using sim::Process;
using sim::Role;
using sim::System;

// ---- Direct sim-tier tests -------------------------------------------------

struct AfScenario {
    System sys{Protocol::WriteBack};
    std::unique_ptr<AfSimLock> lock;

    AfScenario(std::uint32_t n, std::uint32_t m, std::uint32_t f,
               std::uint64_t passages) {
        lock = std::make_unique<AfSimLock>(sys.memory(),
                                           AfParams{.n = n, .m = m, .f = f});
        for (std::uint32_t r = 0; r < n; ++r) {
            Process& p = sys.add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = passages;
            p.set_task(sim::drive(*lock, p, dc));
        }
        for (std::uint32_t w = 0; w < m; ++w) {
            Process& p = sys.add_process(Role::Writer);
            sim::DriveConfig dc;
            dc.passages = passages;
            p.set_task(sim::drive(*lock, p, dc));
        }
    }
};

TEST(FaultInjection, CrashedReaderLeavesItsAnnouncementBehind) {
    // Run the doomed reader solo until the fault fires, then inspect the
    // shared state it abandoned: C[0] must still count it.
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);
    FaultInjector injector(s.sys,
                           FaultPlan{}.crash(/*victim=*/0, Section::Entry,
                                             /*step_in_section=*/6));
    s.sys.add_observer(&injector);

    sim::run_solo(s.sys, /*p=*/0, /*max_steps=*/1000);
    ASSERT_TRUE(s.sys.process(0).crashed());
    EXPECT_FALSE(s.sys.process(0).finished());
    EXPECT_FALSE(s.sys.process(0).runnable());
    // The crashed reader completed its C[0] increment (leaf + root refresh
    // finish within 6 steps) but never ran its exit section.
    EXPECT_EQ(s.lock->peek_c(s.sys.memory(), 0), 1);
}

TEST(FaultInjection, CrashedReaderStarvesTheWriter) {
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/2);
    FaultInjector injector(
        s.sys, FaultPlan{}.crash(/*victim=*/0, Section::Entry, 6));
    s.sys.add_observer(&injector);
    sim::ProgressChecker progress(/*window=*/2000);
    s.sys.add_observer(&progress);

    sim::RoundRobinScheduler sched;
    const auto rr = sim::run(s.sys, sched, /*max_steps=*/30000);
    s.sys.check_failures();

    EXPECT_FALSE(rr.all_finished);
    EXPECT_EQ(injector.num_fired(), 1u);
    EXPECT_EQ(s.sys.num_crashed(), 1u);
    // The writer spins at lines 12-23 forever because C[0] never drains --
    // and since it already published RSIG = WAIT, the surviving reader's
    // next passage parks at line 36 behind it: one crashed reader takes
    // down every later passage of everyone.
    const Process& writer = s.sys.process(2);
    EXPECT_FALSE(writer.finished());
    EXPECT_EQ(writer.section(), Section::Entry);
    EXPECT_FALSE(s.sys.process(1).finished());
    EXPECT_EQ(s.sys.process(1).section(), Section::Entry);
    EXPECT_TRUE(progress.starvation_detected() || progress.livelock_detected());
    EXPECT_FALSE(progress.diagnosis().empty());
}

TEST(FaultInjection, StalledReaderOnlyDelaysCompletion) {
    // A stall is a pause, not a death: the system must converge once the
    // stall expires.
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/2);
    FaultInjector injector(
        s.sys, FaultPlan{}.stall(/*victim=*/0, Section::Entry,
                                 /*step_in_section=*/2, /*steps=*/300));
    s.sys.add_observer(&injector);

    sim::RoundRobinScheduler sched;
    const auto rr = sim::run(s.sys, sched, /*max_steps=*/100000);
    s.sys.check_failures();

    EXPECT_EQ(injector.num_fired(), 1u);
    EXPECT_TRUE(rr.all_finished);
    EXPECT_EQ(s.sys.num_crashed(), 0u);
}

TEST(FaultInjection, UnresumedStallDegeneratesToACrash) {
    // End-of-window semantics pinned by the FaultSpec::stall_steps comment:
    // stall resumption is evaluated only when a step executes, so if the
    // rest of the system quiesces before the window elapses, the stall
    // never ends. The victim is then observationally a crash -- stuck,
    // unfinished, not runnable -- EXCEPT that num_crashed() does not count
    // it: it is a stuck survivor, not a dead process.
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);
    FaultInjector injector(
        s.sys, FaultPlan{}
                   .stall(/*victim=*/0, Section::Entry, /*step_in_section=*/2,
                          /*steps=*/100000)
                   .crash(/*victim=*/1, Section::Entry, 1)
                   .crash(/*victim=*/2, Section::Entry, 1));
    s.sys.add_observer(&injector);

    sim::RoundRobinScheduler sched;
    const auto rr = sim::run(s.sys, sched, /*max_steps=*/50000);
    s.sys.check_failures();

    // Everyone else crashed, so the system quiesced long before the
    // 100000-step stall window could elapse...
    EXPECT_EQ(injector.num_fired(), 3u);
    EXPECT_LT(s.sys.steps_executed(), 100000u);
    EXPECT_FALSE(rr.all_finished);
    // ...leaving the victim permanently stalled: observationally crashed
    // (never finishes, never runs again) but still alive.
    const Process& victim = s.sys.process(0);
    EXPECT_TRUE(victim.stalled());
    EXPECT_FALSE(victim.finished());
    EXPECT_FALSE(victim.runnable());
    EXPECT_FALSE(victim.crashed());
    EXPECT_EQ(s.sys.num_crashed(), 2u);  // The stalled survivor is not dead.
}

TEST(FaultInjection, OutOfRangeVictimIsRejectedAtInstallTime) {
    // A typo'd victim pid used to be a silently-unfired fault; now the
    // injector refuses to install it (the plan names a process that cannot
    // exist, so the experiment it describes is vacuous).
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);  // pids 0..2.
    try {
        FaultInjector injector(
            s.sys, FaultPlan{}.crash(/*victim=*/3, Section::Entry, 1));
        FAIL() << "out-of-range victim accepted";
    } catch (const std::invalid_argument& e) {
        // Diagnostics name the bad pid and the valid range.
        EXPECT_NE(std::string(e.what()).find("victim p3"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("3 process"), std::string::npos)
            << e.what();
    }
}

TEST(FaultInjection, RequireAllFiredTurnsAnUnfiredFaultIntoAHardError) {
    // Without the flag, a placement past a section's end is data (the
    // explore tests probe for exactly that). With it, an unfired fault is
    // a configuration bug and must fail loudly, naming the stragglers.
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);
    FaultInjector injector(s.sys,
                           FaultPlan{}
                               .crash(/*victim=*/0, Section::Entry, 1)
                               .crash(/*victim=*/1, Section::Entry, 9999)
                               .require_all_fired());
    s.sys.add_observer(&injector);
    sim::RoundRobinScheduler sched;
    sim::run(s.sys, sched, /*max_steps=*/30000);
    s.sys.check_failures();

    EXPECT_EQ(injector.num_fired(), 1u);
    EXPECT_EQ(injector.num_unfired(), 1u);
    try {
        injector.assert_all_fired();
        FAIL() << "assert_all_fired did not throw";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("crash v1"), std::string::npos) << what;
        EXPECT_NE(what.find("step 9999"), std::string::npos) << what;
    }
}

TEST(FaultInjection, AssertAllFiredIsANoOpWithoutTheFlagOrWhenAllFired) {
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);
    FaultInjector injector(s.sys,
                           FaultPlan{}
                               .crash(/*victim=*/0, Section::Entry, 9999)
                               .require_all_fired(false));
    s.sys.add_observer(&injector);
    sim::RoundRobinScheduler sched;
    sim::run(s.sys, sched, /*max_steps=*/30000);
    s.sys.check_failures();
    EXPECT_EQ(injector.num_unfired(), 1u);
    EXPECT_NO_THROW(injector.assert_all_fired());  // Flag off: data, not bug.
}

TEST(FaultInjection, NumStalledCountsOnlyNeverResumedStalls) {
    // Expired stalls leave no trace; only a stall that outlives the run
    // shows up, distinguishing "paused forever" from "finished late".
    AfScenario resumed(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/2);
    FaultInjector inj1(resumed.sys,
                       FaultPlan{}.stall(/*victim=*/0, Section::Entry,
                                         /*step_in_section=*/2, /*steps=*/300));
    resumed.sys.add_observer(&inj1);
    sim::RoundRobinScheduler sched1;
    sim::run(resumed.sys, sched1, /*max_steps=*/100000);
    resumed.sys.check_failures();
    EXPECT_EQ(resumed.sys.num_stalled(), 0u);

    // The UnresumedStallDegeneratesToACrash scenario again, through the
    // counter: the rest of the system dies before the window elapses.
    AfScenario stuck(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/1);
    FaultInjector inj2(stuck.sys,
                       FaultPlan{}
                           .stall(/*victim=*/0, Section::Entry, 2,
                                  /*steps=*/100000)
                           .crash(/*victim=*/1, Section::Entry, 1)
                           .crash(/*victim=*/2, Section::Entry, 1));
    stuck.sys.add_observer(&inj2);
    sim::RoundRobinScheduler sched2;
    sim::run(stuck.sys, sched2, /*max_steps=*/50000);
    stuck.sys.check_failures();
    EXPECT_EQ(stuck.sys.num_stalled(), 1u);
    EXPECT_TRUE(stuck.sys.process(0).stalled());
}

TEST(FaultInjection, CrashedWriterPastLine18StarvesReaders) {
    // A writer that dies inside the CS holds WL and leaves RSIG = WAIT:
    // readers park on line 36 forever. The watchdog must call it out.
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/2);
    FaultInjector injector(
        s.sys, FaultPlan{}.crash(/*victim=*/2, Section::Critical, 1));
    s.sys.add_observer(&injector);
    sim::ProgressChecker progress(/*window=*/2000);
    s.sys.add_observer(&progress);

    sim::RoundRobinScheduler sched;
    const auto rr = sim::run(s.sys, sched, /*max_steps=*/30000);
    s.sys.check_failures();

    EXPECT_FALSE(rr.all_finished);
    EXPECT_EQ(s.sys.num_crashed(), 1u);
    EXPECT_TRUE(progress.starvation_detected() || progress.livelock_detected());
}

TEST(ProgressChecker, HealthyRunRaisesNoFlags) {
    AfScenario s(/*n=*/3, /*m=*/2, /*f=*/2, /*passages=*/3);
    sim::ProgressChecker progress(/*window=*/5000);
    s.sys.add_observer(&progress);
    sim::RandomScheduler sched(7);
    const auto rr = sim::run(s.sys, sched, /*max_steps=*/200000);
    s.sys.check_failures();
    EXPECT_TRUE(rr.all_finished);
    EXPECT_FALSE(progress.livelock_detected());
    EXPECT_FALSE(progress.starvation_detected());
    EXPECT_TRUE(progress.diagnosis().empty());
}

TEST(ProgressChecker, ThrowsWhenConfigured) {
    AfScenario s(/*n=*/2, /*m=*/1, /*f=*/1, /*passages=*/2);
    FaultInjector injector(
        s.sys, FaultPlan{}.crash(/*victim=*/0, Section::Entry, 6));
    s.sys.add_observer(&injector);
    sim::ProgressChecker progress(/*window=*/1000, /*throw_on_violation=*/true);
    s.sys.add_observer(&progress);
    sim::RoundRobinScheduler sched;
    EXPECT_THROW(sim::run(s.sys, sched, /*max_steps=*/30000),
                 sim::ProgressViolation);
}

// ---- Harness-level wiring --------------------------------------------------

harness::ExperimentConfig faulty_config() {
    harness::ExperimentConfig cfg;
    cfg.lock = harness::LockKind::Af;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 2;
    cfg.sched = harness::SchedKind::Random;
    cfg.seed = 42;
    cfg.max_steps = 30000;
    cfg.faults.crash(/*victim=*/0, Section::Entry, /*step_in_section=*/6);
    cfg.progress_window = 2000;
    return cfg;
}

TEST(FaultExperiment, WriterStarvationIsDetectedAndDiagnosed) {
    auto cfg = faulty_config();
    const auto res = harness::run_experiment(cfg);
    EXPECT_FALSE(res.finished);
    EXPECT_FALSE(res.all_surviving_finished);
    EXPECT_EQ(res.crashed, 1u);
    EXPECT_TRUE(res.starvation || res.livelock);
    EXPECT_NE(res.progress_diagnosis.find("writer"), std::string::npos);
    EXPECT_EQ(res.me_violations, 0u);
}

TEST(FaultExperiment, StarvationReproducesDeterministicallyFromReplay) {
    // Acceptance scenario: record the schedule of a random run in which a
    // crashed reader starves the writer, then replay the recorded trace on
    // a freshly built system. Every observable must match exactly.
    auto cfg = faulty_config();
    cfg.record_schedule = true;
    const auto first = harness::run_experiment(cfg);
    ASSERT_TRUE(first.starvation || first.livelock);
    ASSERT_EQ(first.schedule.size(), first.steps);

    auto replay_cfg = faulty_config();
    replay_cfg.replay = first.schedule;
    replay_cfg.record_schedule = true;
    const auto second = harness::run_experiment(replay_cfg);

    EXPECT_EQ(second.steps, first.steps);
    EXPECT_EQ(second.crashed, first.crashed);
    EXPECT_EQ(second.finished, first.finished);
    EXPECT_EQ(second.starvation, first.starvation);
    EXPECT_EQ(second.livelock, first.livelock);
    EXPECT_EQ(second.schedule, first.schedule);
    EXPECT_EQ(second.readers.num_passages, first.readers.num_passages);
    EXPECT_EQ(second.writers.num_passages, first.writers.num_passages);
}

TEST(FaultExperiment, FaultFreeRunsAreUnaffectedByRobustnessKnobs) {
    auto cfg = faulty_config();
    cfg.faults = sim::FaultPlan{};
    cfg.record_schedule = true;
    const auto res = harness::run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_TRUE(res.all_surviving_finished);
    EXPECT_EQ(res.crashed, 0u);
    EXPECT_FALSE(res.livelock);
    EXPECT_FALSE(res.starvation);
    EXPECT_TRUE(res.progress_diagnosis.empty());
    EXPECT_FALSE(res.deadline_expired);
}

TEST(FaultExperiment, WallDeadlineStopsALivelockedRun) {
    auto cfg = faulty_config();
    cfg.max_steps = 2'000'000'000;  // Would spin for minutes without a guard.
    cfg.progress_window = 0;
    cfg.wall_deadline_ms = 100;
    const auto res = harness::run_experiment(cfg);
    EXPECT_TRUE(res.deadline_expired);
    EXPECT_FALSE(res.finished);
    EXPECT_NE(res.progress_diagnosis.find("wall deadline"),
              std::string::npos);
    EXPECT_LT(res.steps, 2'000'000'000u);
}

}  // namespace
}  // namespace rwr
