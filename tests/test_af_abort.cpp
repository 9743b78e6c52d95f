// Simulated aborts of A_f. AfSimLock runs the rollbacks of
// core/af_protocol.inc -- the code the native AfLock runs on hardware -- so
// the explorer checks DESIGN.md §8.1's rollback argument: an attempt that
// gives up anywhere leaves mutual exclusion, progress and the lock's
// resting state intact. Two searches:
//   * the single-abort placement sweep of test_abortable (DPOR): one
//     process makes a single attempt that gives up after patience j = 0,
//     1, 2, ..., then leaves for good, as a try_lock caller may, while the
//     others run passages; j grows until no schedule reaches the abort.
//     Leaving matters: a retry would run lines 34-35 again and so hand a
//     stranded writer the CS that a broken rollback forgot to;
//   * random schedules in which every process's first attempts, through
//     the passage driver, draw their patience from a process-local stream
//     and retry (several aborts per run).
// Every run must pass the throwing ME checker and finish, and the last
// process to finish checks that every C[i] and W[i] is 0 and RSIG is
// <WSEQ, NOP> (a violation otherwise).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/af_lock_sim.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/passage.hpp"

namespace rwr::core {
namespace {

using mutex::AbortControl;
using mutex::EnterResult;

struct Shape {
    std::uint32_t n, m, f;
};

std::string label(const Shape& s) {
    return "n=" + std::to_string(s.n) + " m=" + std::to_string(s.m) +
           " f=" + std::to_string(s.f);
}

using Patience = std::function<AbortControl(const sim::Process&)>;

/// drive() target over AfSimLock::entry_abortable: `patience(p)` picks
/// each attempt's AbortControl, and aborts that fire are counted.
struct AbortingPassages {
    AfSimLock& lock;
    const Memory& mem;
    Patience patience;
    std::atomic<std::uint64_t>* fired;
    std::uint64_t ends_left;  ///< Passages still to end, plus walk-aways.

    sim::SimTask<EnterResult> entry(sim::Process& p) {
        const EnterResult r = co_await lock.entry_abortable(p, patience(p));
        if (r == EnterResult::Aborted) {
            fired->fetch_add(1, std::memory_order_relaxed);
        }
        co_return r;
    }
    sim::SimTask<void> exit(sim::Process& p) {
        co_await lock.exit(p);
        ended();
    }
    void ended() {
        if (--ends_left == 0) {
            check_at_rest();
        }
    }
    void check_at_rest() const {
        for (std::uint32_t g = 0; g < lock.num_groups(); ++g) {
            if (lock.peek_c(mem, g) != 0 || lock.peek_w(mem, g) != 0) {
                throw sim::InvariantViolation(
                    "group " + std::to_string(g) + " not at rest: C=" +
                    std::to_string(lock.peek_c(mem, g)) +
                    " W=" + std::to_string(lock.peek_w(mem, g)));
            }
        }
        const Word rsig = mem.peek(lock.rsig_var());
        if (rsig != pack_sig(mem.peek(lock.wseq_var()), RsOp::Nop)) {
            throw sim::InvariantViolation("RSIG is not <WSEQ, NOP>");
        }
    }
};

/// One attempt per `patience`; a 1-step CS and the exit if it acquires;
/// then the process leaves for good.
sim::SimTask<void> attempt_once(AbortingPassages& t, sim::Process& p) {
    p.set_section(Section::Entry);
    const EnterResult r = co_await t.entry(p);
    if (r == EnterResult::Acquired) {
        p.set_section(Section::Critical);
        co_await p.local_step();
        p.set_section(Section::Exit);
        co_await t.lock.exit(p);
    }
    p.set_section(Section::Remainder);
    t.ended();
}

/// n readers then m writers (pids in that order), `passages` each with a
/// 1-step CS, WriteBack. Process `walker`, if any, makes one attempt
/// instead (attempt_once).
sim::ScenarioFactory abort_scenario(
    const Shape& s, std::uint64_t passages,
    std::function<Patience()> make_patience,
    std::shared_ptr<std::atomic<std::uint64_t>> fired,
    std::optional<ProcId> walker = std::nullopt) {
    return [=]() {
        sim::Scenario sc;
        sc.sys = std::make_unique<sim::System>(Protocol::WriteBack);
        auto lock = std::make_unique<AfSimLock>(
            sc.sys->memory(), AfParams{.n = s.n, .m = s.m, .f = s.f});
        const std::uint64_t drivers = s.n + s.m - (walker ? 1 : 0);
        auto target = std::make_shared<AbortingPassages>(AbortingPassages{
            *lock, sc.sys->memory(), make_patience(), fired.get(),
            drivers * passages + (walker ? 1 : 0)});
        sim::DriveConfig dc;
        dc.passages = passages;
        for (std::uint32_t i = 0; i < s.n + s.m; ++i) {
            sim::Process& p = sc.sys->add_process(
                i < s.n ? sim::Role::Reader : sim::Role::Writer);
            if (walker == p.id()) {
                p.set_task(attempt_once(*target, p));
            } else {
                sim::install(*target, p, dc);
            }
        }
        sc.checker = std::make_unique<sim::MutualExclusionChecker>(
            /*throw_on_violation=*/true);
        sc.sys->add_observer(sc.checker.get());
        sc.lock = std::move(lock);
        sc.extra = std::move(target);
        return sc;
    };
}

/// Probes j = 0, 1, 2, ... as test_abortable does, until no explored
/// schedule fires the abort: process `aborter` makes one attempt with
/// patience j, everyone else blocks. Returns the placements that fired.
std::uint64_t sweep(const Shape& s, ProcId aborter) {
    std::uint64_t fired_placements = 0;
    for (std::uint64_t j = 0; j <= 200; ++j) {
        const auto patience = [aborter, j] {
            return Patience([aborter, j](const sim::Process& p) {
                return p.id() == aborter ? AbortControl::after(j)
                                         : AbortControl::never();
            });
        };
        auto fired = std::make_shared<std::atomic<std::uint64_t>>(0);
        sim::ExploreOptions opt;
        opt.branch_depth = 12;
        opt.finish_budget = 50'000;
        const sim::ExploreResult res = sim::explore(
            abort_scenario(s, 2, patience, fired, aborter), opt);
        const std::string where = label(s) + " aborter pid " +
                                  std::to_string(aborter) + " patience " +
                                  std::to_string(j);
        EXPECT_EQ(res.violations, 0u) << where << ": " << res.first_violation;
        EXPECT_EQ(res.incomplete_runs, 0u) << where;
        EXPECT_EQ(res.truncated_runs, 0u) << where;
        if (fired->load() == 0) {
            return fired_placements;
        }
        ++fired_placements;
    }
    ADD_FAILURE() << label(s) << ": patience never stops firing";
    return fired_placements;
}

TEST(AfAbort, EveryReaderAbortPlacementRollsBack) {
    for (const Shape s : {Shape{1, 1, 1}, Shape{2, 1, 1}, Shape{2, 1, 2},
                          Shape{3, 1, 1}, Shape{2, 2, 2}}) {
        EXPECT_GT(sweep(s, /*reader 0*/ 0), 0u) << label(s);
    }
}

TEST(AfAbort, EveryWriterAbortPlacementRollsBack) {
    for (const Shape s : {Shape{1, 1, 1}, Shape{2, 1, 1}, Shape{2, 1, 2},
                          Shape{3, 1, 3}, Shape{1, 2, 1}}) {
        EXPECT_GT(sweep(s, /*writer 0*/ s.n), 0u) << label(s);
    }
}

TEST(AfAbort, RandomSchedulesWithManyAborts) {
    // Each process's first three attempts give up after 0-7 wait reads,
    // drawn from a stream seeded by its pid (process-local, like every
    // patience); later attempts block, so every run can finish.
    const auto patience_streams = [] {
        return Patience([streams = std::vector<std::mt19937_64>{},
                attempts = std::vector<int>{}](
                   const sim::Process& p) mutable {
            while (streams.size() <= p.id()) {
                streams.emplace_back(streams.size() + 1);
                attempts.push_back(0);
            }
            if (attempts[p.id()]++ >= 3) {
                return AbortControl::never();
            }
            return AbortControl::after(streams[p.id()]() % 8);
        });
    };
    for (const Shape s : {Shape{3, 1, 1}, Shape{3, 1, 3}, Shape{3, 2, 1},
                          Shape{3, 2, 3}}) {
        auto fired = std::make_shared<std::atomic<std::uint64_t>>(0);
        const sim::ExploreResult res = sim::explore_random(
            abort_scenario(s, 3, patience_streams, fired), 400, /*seed=*/7,
            200'000);
        EXPECT_EQ(res.violations, 0u) << label(s) << ": "
                                      << res.first_violation;
        EXPECT_EQ(res.incomplete_runs, 0u) << label(s);
        EXPECT_GT(fired->load(), 400u) << label(s);
    }
}

TEST(AfAbort, TheDsmVariantsWriterCannotAbort) {
    sim::System sys(Protocol::Dsm);
    AfSimLock lock(sys.memory(),
                   AfParams{.n = 1, .m = 1, .f = 1, .dsm_local_spin = true});
    sys.add_process(sim::Role::Reader);
    sim::Process& w = sys.add_process(sim::Role::Writer);
    EXPECT_THROW((void)lock.entry_abortable(w, AbortControl::after(1)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rwr::core
