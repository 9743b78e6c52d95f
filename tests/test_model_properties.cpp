// Cross-cutting model properties:
//
//  * Protocol transparency: the coherence protocol affects RMR *accounting*
//    only -- identical schedules under write-through, write-back and DSM
//    must produce identical values, responses and passage counts.
//  * Fail-stop in the remainder section: the paper's failure model allows
//    processes to stop forever in the remainder section ("processes do not
//    fail-stop outside the remainder section"); live processes must keep
//    completing passages regardless.
//  * Scheduler-independence of solo costs: a process running alone incurs
//    identical step sequences whatever the scheduler.
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hpp"
#include "harness/locks.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rwr {
namespace {

using harness::ExperimentConfig;
using harness::LockKind;
using sim::Process;
using sim::Role;

struct ReplayOutcome {
    std::vector<Word> final_values;
    std::vector<std::uint64_t> passages;
    std::uint64_t total_rmrs = 0;
    bool finished = false;
};

ReplayOutcome run_under(Protocol proto, LockKind kind,
                        const std::vector<std::size_t>& choices) {
    sim::System sys(proto);
    auto lock = harness::make_sim_lock(kind, sys.memory(), 3, 2, 2);
    for (int r = 0; r < 3; ++r) {
        Process& p = sys.add_process(Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 2;
        p.set_task(sim::drive(*lock, p, dc));
    }
    for (int w = 0; w < 2; ++w) {
        Process& p = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 2;
        p.set_task(sim::drive(*lock, p, dc));
    }
    sim::ReplayScheduler sched(choices);
    const auto res = sim::run(sys, sched, 2'000'000);
    ReplayOutcome out;
    out.finished = res.all_finished;
    out.total_rmrs = sys.memory().total_rmrs();
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(sys.memory().num_variables()); ++i) {
        out.final_values.push_back(sys.memory().peek(VarId{i}));
    }
    for (ProcId id = 0; id < sys.num_processes(); ++id) {
        out.passages.push_back(sys.process(id).completed_passages());
    }
    return out;
}

class ProtocolTransparency
    : public ::testing::TestWithParam<std::tuple<LockKind, std::uint64_t>> {
};

TEST_P(ProtocolTransparency, SameScheduleSameValuesDifferentCosts) {
    const auto [kind, seed] = GetParam();
    // A pseudo-random but fixed choice sequence; identical across runs.
    std::vector<std::size_t> choices;
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        choices.push_back(static_cast<std::size_t>(x % 5));
    }
    const auto wt = run_under(Protocol::WriteThrough, kind, choices);
    const auto wb = run_under(Protocol::WriteBack, kind, choices);
    const auto dsm = run_under(Protocol::Dsm, kind, choices);
    ASSERT_TRUE(wt.finished && wb.finished && dsm.finished);
    EXPECT_EQ(wt.final_values, wb.final_values);
    EXPECT_EQ(wt.final_values, dsm.final_values);
    EXPECT_EQ(wt.passages, wb.passages);
    EXPECT_EQ(wt.passages, dsm.passages);
    // Costs differ: WT pays for every write; WB exploits exclusivity.
    EXPECT_GT(wt.total_rmrs, wb.total_rmrs);
}

INSTANTIATE_TEST_SUITE_P(
    AllLocks, ProtocolTransparency,
    ::testing::Combine(::testing::Values(LockKind::Af,
                                         LockKind::Centralized,
                                         LockKind::Faa, LockKind::PhaseFair,
                                         LockKind::ReaderPref,
                                         LockKind::BigMutex),
                       ::testing::Range<std::uint64_t>(0, 5)));

class FailStopInRemainder : public ::testing::TestWithParam<LockKind> {};

TEST_P(FailStopInRemainder, LiveProcessesKeepProgressing) {
    const LockKind kind = GetParam();
    sim::System sys(Protocol::WriteBack);
    auto lock = harness::make_sim_lock(kind, sys.memory(), 4, 2, 2);
    std::vector<Process*> procs;
    for (int r = 0; r < 4; ++r) {
        Process& p = sys.add_process(Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 6;
        dc.remainder_steps = 1;  // Observable remainder pause.
        p.set_task(sim::drive(*lock, p, dc));
        procs.push_back(&p);
    }
    for (int w = 0; w < 2; ++w) {
        Process& p = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 6;
        dc.remainder_steps = 1;
        p.set_task(sim::drive(*lock, p, dc));
        procs.push_back(&p);
    }
    sys.start_all();

    // Run everyone until reader 0 and writer 0 (pid 4) have each completed
    // one passage and sit in the remainder section -- then fail-stop them
    // (simply never schedule them again).
    sim::RandomScheduler warmup(11);
    std::uint64_t guard = 0;
    auto parked = [&](ProcId id) {
        return sys.process(id).completed_passages() >= 1 &&
               sys.process(id).section() == Section::Remainder;
    };
    while ((!parked(0) || !parked(4)) && guard++ < 2'000'000) {
        const auto runnable = sys.runnable();
        ASSERT_FALSE(runnable.empty());
        sys.step(warmup.pick(sys, runnable));
    }
    ASSERT_TRUE(parked(0) && parked(4));

    // Fail-stop pids 0 and 4: schedule only the others.
    sim::RandomScheduler sched(13);
    guard = 0;
    auto survivors_done = [&] {
        for (ProcId id = 0; id < 6; ++id) {
            if (id == 0 || id == 4) {
                continue;
            }
            if (sys.process(id).completed_passages() < 6) {
                return false;
            }
        }
        return true;
    };
    while (!survivors_done() && guard++ < 5'000'000) {
        auto runnable = sys.runnable();
        std::erase(runnable, ProcId{0});
        std::erase(runnable, ProcId{4});
        ASSERT_FALSE(runnable.empty()) << "survivors blocked on the failed";
        sys.step(sched.pick(sys, runnable));
    }
    EXPECT_TRUE(survivors_done())
        << harness::to_string(kind)
        << ": live processes starved by remainder-section fail-stops";
}

INSTANTIATE_TEST_SUITE_P(AllLocks, FailStopInRemainder,
                         ::testing::Values(LockKind::Af,
                                           LockKind::Centralized,
                                           LockKind::Faa,
                                           LockKind::PhaseFair,
                                           LockKind::ReaderPref,
                                           LockKind::BigMutex));

TEST(SoloDeterminism, SoloPassageIsSchedulerIndependent) {
    // A process alone in the system takes exactly the same steps whatever
    // the scheduler (there is only one runnable choice).
    auto run_one = [](auto make_sched) {
        sim::System sys(Protocol::WriteBack);
        auto lock =
            harness::make_sim_lock(LockKind::Af, sys.memory(), 4, 1, 2);
        Process& p = sys.add_process(Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 2;
        p.set_task(sim::drive(*lock, p, dc));
        auto sched = make_sched();
        sim::run(sys, *sched, 100'000);
        return p.stats().total_steps();
    };
    const auto rr = run_one([] {
        return std::make_unique<sim::RoundRobinScheduler>();
    });
    const auto rnd = run_one([] {
        return std::make_unique<sim::RandomScheduler>(99);
    });
    EXPECT_EQ(rr, rnd);
}

}  // namespace
}  // namespace rwr
