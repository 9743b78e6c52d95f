// Ablation tests: removing either of Algorithm 1's handshake mechanisms
// must produce a DETECTABLE failure -- demonstrating that the paper's
// PREENTRY phase and exit-section helping are load-bearing, and that our
// verification machinery can tell.
#include <gtest/gtest.h>

#include <memory>

#include "core/af_ablations.hpp"
#include "core/af_lock_sim.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/scheduler.hpp"

namespace rwr::core {
namespace {

using sim::Process;
using sim::Role;

sim::ScenarioFactory ablated_factory(AfAblation ablation, std::uint32_t n,
                                     std::uint32_t m, std::uint32_t f,
                                     std::uint64_t passages) {
    return [=]() {
        sim::Scenario sc;
        sc.sys = std::make_unique<sim::System>(Protocol::WriteBack);
        AfParams params{.n = n, .m = m, .f = f};
        auto lock = std::make_unique<AblatedAfSimLock>(sc.sys->memory(),
                                                       params, ablation);
        for (std::uint32_t r = 0; r < n; ++r) {
            Process& p = sc.sys->add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = passages;
            dc.cs_steps = 2;
            p.set_task(sim::drive(*lock, p, dc));
        }
        for (std::uint32_t w = 0; w < m; ++w) {
            Process& p = sc.sys->add_process(Role::Writer);
            sim::DriveConfig dc;
            dc.passages = passages;
            dc.cs_steps = 2;
            p.set_task(sim::drive(*lock, p, dc));
        }
        sc.checker = std::make_unique<sim::MutualExclusionChecker>(true);
        sc.sys->add_observer(sc.checker.get());
        sc.lock = std::move(lock);
        return sc;
    };
}

TEST(AfAblations, NoExitHelpDeadlocksTheWriter) {
    // Without lines 41-48 a writer that observed C[i] > 0 is never
    // signalled: runs stop finishing (writer spins forever at line 14/21).
    const auto res = sim::explore_random(
        ablated_factory(AfAblation::NoExitHelp, 2, 1, 1, 1), 100, 3,
        200'000);
    EXPECT_EQ(res.violations, 0u);  // ME still holds...
    EXPECT_GT(res.incomplete_runs, 20u)
        << "...but most runs must deadlock without exit helping";
}

TEST(AfAblations, NoPreentryBreaksMutualExclusion_Directed) {
    // The exact interleaving Lemma 11 rules out for the full algorithm,
    // constructed deterministically against the ablated one:
    //   1. Writer passage 0 arms WAIT; reader R parks at line 36.
    //   2. Writer exits and immediately starts passage 1; WITHOUT the
    //      PREENTRY drain it re-arms WAIT while R is still waking.
    //   3. R breaks its spin (RSIG changed) but pauses BEFORE its
    //      W[i].add(-1): R is still counted in W.
    //   4. Fresh reader R2 arrives, sees WAIT, increments W, and its
    //      HelpWCS observes C == W (R double-counted): it signals CS.
    //   5. The writer enters the CS; R then finishes entry and joins it.
    sim::System sys(Protocol::WriteBack);
    AfParams params{.n = 2, .m = 1, .f = 1};
    auto lock = std::make_unique<AblatedAfSimLock>(sys.memory(), params,
                                                   AfAblation::NoPreentry);
    sim::MutualExclusionChecker checker(/*throw_on_violation=*/false);
    sys.add_observer(&checker);

    Process& r = sys.add_process(Role::Reader);
    Process& r2 = sys.add_process(Role::Reader);
    Process& w = sys.add_process(Role::Writer);
    for (Process* p : {&r, &r2, &w}) {
        sim::DriveConfig dc;
        dc.passages = 2;
        dc.cs_steps = 2;
        p->set_task(sim::drive(*lock, *p, dc));
    }
    sys.start_all();
    const VarId rsig = lock->rsig_var();

    // 1. Writer solo into the CS (arms <0, WAIT> on the way).
    sim::run_solo(sys, w.id(), 10'000,
                  [](const Process& p) { return p.in_cs(); });
    ASSERT_TRUE(w.in_cs());
    // R arrives, reads <0, WAIT> at line 32, increments W, helps, and
    // parks at the line-36 spin -- which is R's SECOND read of RSIG.
    int rsig_reads = 0;
    for (int i = 0; i < 200 && r.runnable(); ++i) {
        const bool at_rsig = r.pending().code == OpCode::Read &&
                             r.pending().var == rsig;
        if (at_rsig && rsig_reads >= 1) {
            break;  // Parked at the line-36 spin, still counted in W.
        }
        rsig_reads += at_rsig ? 1 : 0;
        sys.step(r.id());
    }
    ASSERT_EQ(rsig_reads, 1);
    // 2. Writer exits passage 0 and runs passage 1's entry up to its WSIG
    //    drain spin: step until RSIG holds <1, WAIT>.
    for (int i = 0; i < 400; ++i) {
        const Word cur = sys.memory().peek(rsig);
        if (core::sig_rs_op(cur) == RsOp::Wait &&
            core::sig_seq(cur) == 1) {
            break;
        }
        sys.step(w.id());
    }
    // 3. R wakes: step it until it LEAVES the RSIG spin, then stop.
    for (int i = 0; i < 200 && r.runnable(); ++i) {
        const bool at_spin = r.pending().code == OpCode::Read &&
                             r.pending().var == rsig;
        if (!at_spin) {
            break;  // Next op is the W[i].add(-1) leaf access: pause here.
        }
        sys.step(r.id());
    }
    // 4. R2 runs its whole entry (its HelpWCS double-counts R).
    sim::run_solo(sys, r2.id(), 10'000, [](const Process& p) {
        return p.in_cs() || p.section() == Section::Remainder;
    });
    // 5. Writer drains its spin; R completes its entry.
    sim::run_solo(sys, w.id(), 10'000,
                  [](const Process& p) { return p.in_cs(); });
    sim::run_solo(sys, r.id(), 10'000,
                  [](const Process& p) { return p.in_cs(); });

    EXPECT_TRUE(w.in_cs());
    EXPECT_TRUE(r.in_cs());
    // The checker samples at step boundaries; take one step inside the
    // overlapping critical sections so it observes the violation.
    sys.step(r.id());
    EXPECT_GT(checker.violations(), 0u)
        << "the PREENTRY-less writer shared the CS with reader R -- if "
           "this ever stops reproducing, the ablation (or checker) broke";
}

TEST(AfAblations, FullAlgorithmSurvivesTheSameHunt) {
    // Control: the complete A_f passes the exact same schedule hunt that
    // kills the ablations.
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        sim::Scenario sc;
        sc.sys = std::make_unique<sim::System>(Protocol::WriteBack);
        AfParams params{.n = 3, .m = 1, .f = 1};
        auto lock = std::make_unique<AfSimLock>(sc.sys->memory(), params);
        for (std::uint32_t r = 0; r < 3; ++r) {
            Process& p = sc.sys->add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = 3;
            dc.cs_steps = 2;
            p.set_task(sim::drive(*lock, p, dc));
        }
        Process& w = sc.sys->add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 3;
        dc.cs_steps = 2;
        w.set_task(sim::drive(*lock, w, dc));
        sim::MutualExclusionChecker checker(true);
        sc.sys->add_observer(&checker);

        sim::PctScheduler pct(seed, 4, 5, 600);
        sim::run(*sc.sys, pct, 3'000);
        sim::RandomScheduler rnd(seed * 31 + 7);
        const auto r = sim::run(*sc.sys, rnd, 2'000'000);
        sc.sys->check_failures();
        ASSERT_TRUE(r.all_finished) << "seed " << seed;
        ASSERT_EQ(checker.violations(), 0u);
    }
}

}  // namespace
}  // namespace rwr::core
