// RecoverableJJJMutex unit tests: tree shape arithmetic (the
// sub-logarithmic height claim is a formula before it is a measurement),
// whole-lock stage transitions, the O(1) Critical-Section Reentry path,
// the lost-ticket window (a crash after the tail CAS lands but before
// tkt[q] persists -- the certificate-recovery case), and the JJJ writer
// lock embedded in the recoverable RW lock. The exhaustive schedule-space
// arguments live in test_recover_explore.cpp; the RMR separation against
// the tournament is bench_recoverable's E14 exit-code assertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "recover/recover_experiment.hpp"
#include "recover/recoverable_jjj_mutex.hpp"
#include "recover/recoverable_rwlock.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr {
namespace {

using recover::RecoverableJJJMutex;
using recover::RecoverExperimentConfig;
using recover::RecoverLockKind;
using recover::RecoveryOutcome;
using sim::Process;
using sim::Role;
using sim::System;

constexpr int kRecoverIdx = static_cast<int>(Section::Recover);

// ---- Tree shape ------------------------------------------------------------

TEST(JJJShape, AutoDeltaIsCeilLog2AndHeightIsLogOverLogLog) {
    System sys(Protocol::WriteBack);
    struct Case {
        std::uint32_t m, delta, height;
    };
    // height = #levels of ceil-division by delta until one node remains.
    const Case cases[] = {
        {2, 2, 1},   // One binary node.
        {4, 2, 2},   // ceil(log2 4) = 2: 2 leaves + root.
        {5, 3, 2},   // ceil(5/3)=2 leaves + root.
        {16, 4, 2},  // 4 leaves + root: half the tournament's 4 levels.
        {64, 6, 3},  // ceil(64/6)=11 -> 2 -> 1.
    };
    for (const Case& c : cases) {
        RecoverableJJJMutex mx(sys.memory(), "jm" + std::to_string(c.m), c.m);
        EXPECT_EQ(mx.delta(), c.delta) << "m=" << c.m;
        EXPECT_EQ(mx.height(), c.height) << "m=" << c.m;
    }
}

// ---- Stage transitions and CSR ---------------------------------------------
// Mirrors the tournament's stage tests: the two locks share the
// RecoverableSlotMutex protocol, so the same probes must hold verbatim.

struct JJJRig {
    System sys{Protocol::WriteBack};
    std::unique_ptr<RecoverableJJJMutex> mx;
    explicit JJJRig(std::uint32_t m) {
        mx = std::make_unique<RecoverableJJJMutex>(sys.memory(), "jm", m);
        sys.add_process(Role::Writer);
    }
};

sim::SimTask<void> stage_probe(RecoverableJJJMutex& mx, System& sys,
                               Process& p, std::vector<Word>& observed) {
    observed.push_back(mx.stage_of(sys.memory(), 0));
    co_await mx.enter(p, 0);
    observed.push_back(mx.stage_of(sys.memory(), 0));
    co_await mx.exit_slot(p, 0);
    observed.push_back(mx.stage_of(sys.memory(), 0));
}

TEST(JJJMutex, StageWordTracksThePassagePhases) {
    JJJRig rig(/*m=*/3);
    Process& p = rig.sys.process(0);
    std::vector<Word> observed;
    p.set_task(stage_probe(*rig.mx, rig.sys, p, observed));
    sim::run_solo(rig.sys, 0, /*max_steps=*/1000);
    ASSERT_TRUE(p.finished());
    ASSERT_EQ(observed.size(), 3u);
    EXPECT_EQ(observed[0], RecoverableJJJMutex::kIdle);
    EXPECT_EQ(observed[1], RecoverableJJJMutex::kInCS);
    EXPECT_EQ(observed[2], RecoverableJJJMutex::kIdle);
}

sim::SimTask<void> recover_only(RecoverableJJJMutex& mx, Process& p,
                                RecoveryOutcome& out) {
    co_await mx.recover_slot(p, 0, out);
}

TEST(JJJMutex, RecoverOnIdleReportsNothingToRepair) {
    JJJRig rig(/*m=*/3);
    Process& p = rig.sys.process(0);
    RecoveryOutcome out = RecoveryOutcome::InCriticalSection;
    p.set_task(recover_only(*rig.mx, p, out));
    sim::run_solo(rig.sys, 0, /*max_steps=*/1000);
    ASSERT_TRUE(p.finished());
    EXPECT_EQ(out, RecoveryOutcome::None);
}

sim::SimTask<void> enter_then_recover(RecoverableJJJMutex& mx, Process& p,
                                      RecoveryOutcome& out,
                                      std::uint64_t& recover_steps) {
    co_await mx.enter(p, 0);
    p.set_section(Section::Recover);
    const std::uint64_t before = p.stats().steps[kRecoverIdx];
    co_await mx.recover_slot(p, 0, out);
    recover_steps = p.stats().steps[kRecoverIdx] - before;
}

TEST(JJJMutex, RecoverInsideTheCSIsConstantTime) {
    // CSR must stay O(1) -- one stage read -- regardless of tree height:
    // use m=16 (height 2) so a path walk would be visibly non-constant.
    JJJRig rig(/*m=*/16);
    Process& p = rig.sys.process(0);
    RecoveryOutcome out = RecoveryOutcome::None;
    std::uint64_t recover_steps = 0;
    p.set_task(enter_then_recover(*rig.mx, p, out, recover_steps));
    sim::run_solo(rig.sys, 0, /*max_steps=*/2000);
    ASSERT_TRUE(p.finished());
    EXPECT_EQ(out, RecoveryOutcome::InCriticalSection);
    EXPECT_LE(recover_steps, 2u);
    EXPECT_EQ(rig.mx->stage_of(rig.sys.memory(), 0),
              RecoverableJJJMutex::kInCS);
}

// ---- The lost-ticket window ------------------------------------------------

RecoverExperimentConfig jjj_cfg(std::uint32_t m) {
    RecoverExperimentConfig cfg;
    cfg.lock = RecoverLockKind::JJJMutex;
    cfg.n = 0;
    cfg.m = m;
    cfg.f = 1;
    cfg.passages = 2;
    cfg.cs_steps = 1;
    cfg.sched = harness::SchedKind::RoundRobin;
    cfg.max_steps = 100000;
    return cfg;
}

TEST(JJJMutex, EveryEntryStepCrashIsRepairedIncludingTheLostTicket) {
    // Walk the crash point across the whole entry section one step at a
    // time. Some step is exactly "tail CAS landed, tkt[q] not yet
    // persisted" -- the window where only the obs[] certificate scan can
    // tell an owned ticket from a lost CAS. Every placement must converge
    // with zero ME/CSR violations and exactly one restart.
    std::uint64_t steps_covered = 0;
    for (std::uint64_t s = 1; s <= 40; ++s) {
        auto cfg = jjj_cfg(/*m=*/2);
        cfg.faults.crash_restart(/*victim=*/0, Section::Entry, s);
        const auto res = recover::run_recover_experiment(cfg);
        ASSERT_TRUE(res.finished) << "entry step " << s;
        if (res.restarts == 0) {
            break;  // Walked off the end of the section: coverage complete.
        }
        EXPECT_EQ(res.restarts, 1u) << "entry step " << s;
        EXPECT_EQ(res.me_violations, 0u)
            << "entry step " << s << ": " << res.first_violation;
        EXPECT_EQ(res.rme_violations, 0u)
            << "entry step " << s << ": " << res.first_violation;
        ++steps_covered;
    }
    // The witness: the walk really terminated by falling off the section's
    // end, after covering the CAS + persist + spin prefix.
    EXPECT_GE(steps_covered, 4u);
    EXPECT_LT(steps_covered, 40u);
}

TEST(JJJMutex, ExitCrashAtEveryStepFinishesTheRelease) {
    // The guarded-grant argument, empirically: re-running a half-done
    // release (including at height 2, where root and leaf release
    // interleave) must neither deadlock the successor nor double-grant.
    for (const std::uint32_t m : {2u, 5u}) {
        std::uint64_t steps_covered = 0;
        for (std::uint64_t s = 1; s <= 40; ++s) {
            auto cfg = jjj_cfg(m);
            cfg.faults.crash_restart(/*victim=*/0, Section::Exit, s);
            const auto res = recover::run_recover_experiment(cfg);
            ASSERT_TRUE(res.finished) << "m=" << m << " exit step " << s;
            if (res.restarts == 0) {
                break;
            }
            EXPECT_EQ(res.me_violations + res.rme_violations, 0u)
                << "m=" << m << " exit step " << s << ": "
                << res.first_violation;
            ++steps_covered;
        }
        EXPECT_GE(steps_covered, 1u) << "m=" << m;
        EXPECT_LT(steps_covered, 40u) << "m=" << m;
    }
}

TEST(JJJMutex, SurvivesNestedCrashDuringCertificateRecovery) {
    // Crash mid-entry, then crash AGAIN one step into the resulting
    // recovery (min_restarts gates the second fault to the restarted
    // incarnation). The certificate argument must hold inductively: the
    // second recovery still finds at most one unreleased ticket.
    for (std::uint64_t j = 1; j <= 20; ++j) {
        auto cfg = jjj_cfg(/*m=*/2);
        cfg.faults.crash_restart(/*victim=*/0, Section::Entry, 2);
        cfg.faults.crash_restart(/*victim=*/0, Section::Recover, j,
                                 /*min_restarts=*/1);
        const auto res = recover::run_recover_experiment(cfg);
        ASSERT_TRUE(res.finished) << "recover step " << j;
        if (res.restarts < 2) {
            break;  // Second crash fell past the recovery's end.
        }
        EXPECT_EQ(res.me_violations + res.rme_violations, 0u)
            << "recover step " << j << ": " << res.first_violation;
        EXPECT_GT(res.max_chain_recovery_steps, 0u) << "recover step " << j;
    }
}

// ---- Embedded in the RW lock -----------------------------------------------

TEST(JJJInRWLock, NameAdvertisesTheEmbeddedWriterLock) {
    System sys(Protocol::WriteBack);
    recover::RecoverableRWLock plain(sys.memory(), "a", 2, 2, 1);
    recover::RecoverableRWLock jjj(sys.memory(), "b", 2, 2, 1,
                                   recover::WriterLockKind::JJJ);
    EXPECT_EQ(plain.name(), "recoverable-rw");
    EXPECT_EQ(jjj.name(), "recoverable-rw-jjj");
}

TEST(JJJInRWLock, CrashStormOverBothRolesConvergesCleanly) {
    RecoverExperimentConfig cfg;
    cfg.lock = RecoverLockKind::RwLockJJJ;
    cfg.n = 2;
    cfg.m = 2;
    cfg.f = 1;
    cfg.passages = 3;
    cfg.cs_steps = 1;
    cfg.sched = harness::SchedKind::Random;
    cfg.seed = 23;
    cfg.max_steps = 200000;
    // One crash per process (reader and writer alike), spread over sections.
    static constexpr Section kSecs[3] = {Section::Entry, Section::Critical,
                                         Section::Exit};
    for (std::uint32_t v = 0; v < 4; ++v) {
        cfg.faults.crash_restart(v, kSecs[v % 3], 1);
    }
    const auto res = recover::run_recover_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.restarts, 4u);
    EXPECT_EQ(res.faults_fired, 4u);
    EXPECT_EQ(res.me_violations, 0u) << res.first_violation;
    EXPECT_EQ(res.rme_violations, 0u) << res.first_violation;
    EXPECT_EQ(res.recovery.episodes, 4u);
    EXPECT_GT(res.recovery.max_rmrs, 0u);
}

}  // namespace
}  // namespace rwr
