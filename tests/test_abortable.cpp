// The abortable writer-mutex tier (E18 foundations): JJAmortizedMutex,
// PwRandomizedMutex and the Peterson tree TournamentSimMutex correctness
// under abort-heavy workloads in CC and DSM, the amortized-RMR ledger's
// reconciliation invariant (sum of episode RMRs == Memory's per-history
// total -- the proof every RMR is charged exactly once), exhaustive
// single-abort-placement exploration with the probe-until-unfired
// discipline (plus the broken-abort mutant proving the sweep has teeth),
// the tree's abort rollback, adversary-scheduler determinism, the
// repeated-trial estimator, and the shape of the Pareek-Woelfel
// arbitration tree.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "mutex/abort_experiment.hpp"
#include "mutex/explore_scenario.hpp"
#include "mutex/jj_amortized.hpp"
#include "mutex/pw_randomized.hpp"
#include "mutex/sim_mutex.hpp"
#include "sim/broken_locks.hpp"
#include "sim/explorer.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::mutex {
namespace {

TEST(AbortControl, DefaultsAndFactories) {
    EXPECT_EQ(AbortControl::never().patience, AbortControl::kNever);
    EXPECT_EQ(AbortControl::after(3).patience, 3u);
    EXPECT_EQ(AbortControl{}.patience, AbortControl::kNever);
}

// ---- Tree shape --------------------------------------------------------------

TEST(PwShape, AutoDeltaIsCeilLog2AndHeightIsLogOverLogLog) {
    // The same automatic arity as the recoverable JJJ tree: Delta =
    // max(2, ceil(log2 m)), height = the smallest h with Delta^h >= m.
    Memory mem(Protocol::WriteBack);
    struct Case {
        std::uint32_t m, delta, height;
    };
    const Case cases[] = {
        {1, 2, 1},   // A lone participant still passes one root node.
        {2, 2, 1},   // One binary node.
        {4, 2, 2},   // 2 leaves + root.
        {5, 3, 2},   // 9 >= 5.
        {16, 4, 2},  // 4 leaves + root: half the tournament's 4 levels.
        {17, 5, 2},  // ceil(log2 17) = 5; 25 >= 17.
        {64, 6, 3},  // 6 -> 36 -> 216.
    };
    for (const Case& c : cases) {
        const PwRandomizedMutex mx(mem, "pw" + std::to_string(c.m), c.m,
                                   /*seed=*/1);
        EXPECT_EQ(mx.delta(), c.delta) << "m=" << c.m;
        EXPECT_EQ(mx.height(), c.height) << "m=" << c.m;
    }
}

// ---- Abort-heavy passages + the reconciliation invariant -------------------

struct LockCase {
    const char* label;
    Protocol protocol;
    AbortableMutexBuilder builder;
};

std::vector<LockCase> abortable_cases(std::uint32_t m) {
    std::vector<LockCase> cases;
    cases.push_back({"jj/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<JJAmortizedMutex>(mem, "jj", 4));
                     }});
    cases.push_back({"jj/dsm", Protocol::Dsm, [](Memory& mem) {
                         JJAmortizedMutex::Options opts;
                         opts.owner_base = ProcId{0};
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<JJAmortizedMutex>(mem, "jj", 4,
                                                                opts));
                     }});
    cases.push_back({"pw/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<PwRandomizedMutex>(mem, "pw", 4,
                                                                 /*seed=*/7));
                     }});
    cases.push_back({"tournament/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<TournamentSimMutex>(
                                 mem, "tournament", 4));
                     }});
    (void)m;
    return cases;
}

TEST(AbortExperiment, AbortHeavyPassagesCompleteAndLedgersReconcile) {
    constexpr std::uint32_t kM = 4;
    constexpr std::uint64_t kPassages = 16;
    for (const LockCase& c : abortable_cases(kM)) {
        AbortExperimentConfig cfg;
        cfg.builder = c.builder;
        cfg.protocol = c.protocol;
        cfg.m = kM;
        cfg.passages = kPassages;
        cfg.cs_steps = 2;
        cfg.workload.abort_rate = 0.5;
        cfg.workload.seed = 11;
        cfg.record_episodes = true;
        const AbortExperimentResult res = run_abort_experiment(cfg);

        EXPECT_TRUE(res.finished) << c.label;
        EXPECT_EQ(res.me_violations, 0u) << c.label;
        EXPECT_EQ(res.amortized.passages, std::uint64_t{kM} * kPassages)
            << c.label;
        // Half the attempts draw a small patience: aborts must occur, and
        // every abort implies a retry episode on top of its passage.
        EXPECT_GT(res.amortized.aborted_episodes, 0u) << c.label;
        EXPECT_EQ(res.amortized.episodes,
                  res.amortized.passages + res.amortized.aborted_episodes)
            << c.label;
        EXPECT_GT(res.amortized.abort_rmr_max, 0u) << c.label;
        EXPECT_GE(res.amortized.episode_rmrs, res.amortized.abort_rmrs)
            << c.label;

        // Reconciliation: the per-episode ledger and the Memory-side
        // per-history total must charge exactly the same RMRs (remainder
        // beats between episodes are local steps, 0 RMRs).
        EXPECT_EQ(res.amortized.episode_rmrs, res.memory_rmrs) << c.label;
        ASSERT_EQ(res.episodes.size(), res.amortized.episodes) << c.label;
        std::uint64_t sum = 0;
        std::uint64_t aborted = 0;
        for (const AbortEpisode& e : res.episodes) {
            sum += e.rmrs;
            aborted += e.aborted ? 1 : 0;
        }
        EXPECT_EQ(sum, res.amortized.episode_rmrs) << c.label;
        EXPECT_EQ(aborted, res.amortized.aborted_episodes) << c.label;
        const std::uint64_t proc_sum = std::accumulate(
            res.proc_rmrs.begin(), res.proc_rmrs.end(), std::uint64_t{0});
        EXPECT_EQ(proc_sum, res.memory_rmrs) << c.label;
    }
}

TEST(AbortExperiment, ZeroAbortRateNeverAborts) {
    AbortExperimentConfig cfg;
    cfg.builder = [](Memory& mem) {
        return std::unique_ptr<SimMutex>(
            std::make_unique<JJAmortizedMutex>(mem, "jj", 3));
    };
    cfg.m = 3;
    cfg.passages = 8;
    const AbortExperimentResult res = run_abort_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.amortized.aborted_episodes, 0u);
    EXPECT_EQ(res.amortized.episodes, res.amortized.passages);
    EXPECT_EQ(res.amortized.abort_rmr_max, 0u);
}

TEST(AbortExperiment, NonAbortableBuildersRideTheGridBlocking) {
    // A plain SimMutex builder must work with abort_rate > 0: the rate is
    // ignored (blocking enter), which is how the growth baselines share
    // the E18 grid. The Yang-Anderson tree is one of them; the Peterson
    // tree is abortable and would abort here.
    AbortExperimentConfig cfg;
    cfg.builder = [](Memory& mem) {
        return std::unique_ptr<SimMutex>(
            std::make_unique<YaTournamentSimMutex>(mem, "wl", 3));
    };
    cfg.m = 3;
    cfg.passages = 8;
    cfg.workload.abort_rate = 0.9;
    const AbortExperimentResult res = run_abort_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.amortized.aborted_episodes, 0u);
    EXPECT_EQ(res.amortized.passages, 24u);
}

// ---- Adversary schedulers: ME + bit-identical reruns -----------------------

TEST(AbortExperiment, AdversarySchedulersAreDeterministicAndSafe) {
    for (const AbortSched sched :
         {AbortSched::RoundRobin, AbortSched::ObliviousRandom,
          AbortSched::AdaptiveRmr}) {
        AbortExperimentConfig cfg;
        cfg.builder = [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<PwRandomizedMutex>(mem, "pw", 4, /*seed=*/3));
        };
        cfg.m = 4;
        cfg.passages = 8;
        cfg.workload.abort_rate = 0.4;
        cfg.workload.seed = 5;
        cfg.sched = sched;
        cfg.sched_seed = 21;
        const AbortExperimentResult a = run_abort_experiment(cfg);
        const AbortExperimentResult b = run_abort_experiment(cfg);
        const char* label = to_string(sched);
        EXPECT_TRUE(a.finished) << label;
        EXPECT_EQ(a.me_violations, 0u) << label;
        // Same config, same seeds: bit-identical ledger and step count.
        EXPECT_EQ(a.steps, b.steps) << label;
        EXPECT_EQ(a.amortized.episodes, b.amortized.episodes) << label;
        EXPECT_EQ(a.amortized.aborted_episodes, b.amortized.aborted_episodes)
            << label;
        EXPECT_EQ(a.amortized.episode_rmrs, b.amortized.episode_rmrs)
            << label;
        EXPECT_EQ(a.memory_rmrs, b.memory_rmrs) << label;
    }
}

TEST(AbortExperiment, TrialEstimatorIsDeterministic) {
    const auto make_cfg = [](std::uint64_t trial_seed) {
        AbortExperimentConfig cfg;
        cfg.builder = [trial_seed](Memory& mem) {
            return std::unique_ptr<SimMutex>(std::make_unique<PwRandomizedMutex>(
                mem, "pw", 4, /*seed=*/trial_seed));
        };
        cfg.m = 4;
        cfg.passages = 8;
        cfg.workload.abort_rate = 0.5;
        cfg.workload.seed = trial_seed;
        cfg.sched = AbortSched::ObliviousRandom;
        cfg.sched_seed = trial_seed;
        return cfg;
    };
    const TrialStats a = estimate_expected_amortized(make_cfg, 5, 9);
    const TrialStats b = estimate_expected_amortized(make_cfg, 5, 9);
    EXPECT_EQ(a.trials, 5u);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.ci95, b.ci95);
    EXPECT_EQ(a.worst, b.worst);
    EXPECT_EQ(a.worst_trial, b.worst_trial);
    EXPECT_GT(a.mean, 0.0);
    EXPECT_GE(a.worst, a.mean);
    EXPECT_GE(a.ci95, 0.0);
}

// ---- Exhaustive single-abort placement (satellite 1) -----------------------

struct SweepOutcome {
    std::uint64_t fired_placements = 0;  ///< Placements whose abort fired.
    std::uint64_t violations = 0;
    std::uint64_t incomplete = 0;  ///< Deadlocked runs (mutant symptom).
};

/// Probes patience j = 0, 1, 2, ... For each j, every schedule (DPOR'd) of
/// m writers with slot 0's first attempt impatient-after-j is explored; the
/// sweep stops at the first j whose abort never fires in any schedule --
/// past the last reachable abort point, larger patience only shrinks
/// coverage. Exactly the crash adversary's probe-until-unfired discipline.
/// With expect_clean, every placement must explore with zero violations,
/// zero deadlocks and zero truncations; the mutant test instead inspects
/// the accumulated outcome.
SweepOutcome sweep_abort_placements(const AbortableMutexFactory& builder,
                                    std::uint32_t m, std::uint64_t passages,
                                    std::uint64_t cs_steps, const char* label,
                                    bool expect_clean) {
    SweepOutcome out;
    for (std::uint64_t j = 0;; ++j) {
        auto fired = std::make_shared<std::atomic<std::uint64_t>>(0);
        const auto factory = abortable_mutex_scenario_factory(
            builder, m, passages, cs_steps, /*aborter_slot=*/0, j, fired);
        sim::ExploreOptions opt;
        opt.branch_depth = 10;
        opt.finish_budget = 50'000;
        opt.reduce = true;
        const sim::ExploreResult res = sim::explore(factory, opt);
        out.violations += res.violations;
        out.incomplete += res.incomplete_runs;
        EXPECT_EQ(res.truncated_runs, 0u) << label << " patience " << j;
        if (expect_clean) {
            EXPECT_EQ(res.violations, 0u) << label << " patience " << j;
            EXPECT_EQ(res.incomplete_runs, 0u) << label << " patience " << j;
        }
        if (fired->load(std::memory_order_relaxed) == 0) {
            return out;
        }
        ++out.fired_placements;
        // A runaway sweep means patience never stops firing -- the step
        // counting is broken; fail loudly instead of spinning.
        EXPECT_LT(j, 200u) << label;
        if (j >= 200) {
            return out;
        }
    }
}

TEST(AbortPlacement, JJEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem, std::uint32_t m) {
            return std::unique_ptr<AbortableSimMutex>(
                std::make_unique<JJAmortizedMutex>(mem, "jj", m));
        },
        2, /*passages=*/2, /*cs_steps=*/1, "jj", /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    // The sweep must have covered real abort points.
    EXPECT_GT(out.fired_placements, 0u);
}

AbortableMutexFactory tournament_factory() {
    return [](Memory& mem, std::uint32_t m) {
        return std::unique_ptr<AbortableSimMutex>(
            std::make_unique<TournamentSimMutex>(mem, "tournament", m));
    };
}

TEST(AbortPlacement, TournamentEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out =
        sweep_abort_placements(tournament_factory(), 2, /*passages=*/2,
                               /*cs_steps=*/1, "tournament",
                               /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, TournamentThreeSlotsEveryPlacementKeepsMutualExclusion) {
    // Two levels: slot 0 can abort at n1 (against slot 1) or at the root
    // (against slot 2) with n1 already won, so the rollback runs too.
    const SweepOutcome out =
        sweep_abort_placements(tournament_factory(), 3, /*passages=*/2,
                               /*cs_steps=*/1, "tournament-3",
                               /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, PwEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem, std::uint32_t m) {
            return std::unique_ptr<AbortableSimMutex>(
                std::make_unique<PwRandomizedMutex>(mem, "pw", m, /*seed=*/7));
        },
        2, /*passages=*/2, /*cs_steps=*/1, "pw", /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, BrokenAbortMutantIsCaught) {
    // The teeth check: a mutant whose abort "helpfully" advances the grant
    // cursor past its own ticket licenses the next claimant while the
    // holder is still inside -- the placement sweep must find a violating
    // schedule at SOME placement (and only abort-firing schedules can
    // misbehave, which is exactly what makes the sweep the right net).
    // The CS is widened so the holder is still inside while the aborter
    // re-claims off the corrupted cursor; with a 1-step CS the corruption
    // still surfaces, but as deadlock (grant cursor skipping a live
    // ticket) rather than overlap.
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem, std::uint32_t m) {
            return std::unique_ptr<AbortableSimMutex>(
                std::make_unique<sim::BrokenAbortTicketMutex>(mem, "broken",
                                                              m));
        },
        2, /*passages=*/1, /*cs_steps=*/20, "broken-abort",
        /*expect_clean=*/false);
    EXPECT_GT(out.violations, 0u);
}

// ---- The tree's abort rollback ----------------------------------------------

sim::SimTask<void> enter_once(SimMutex& mx, sim::Process& p,
                              std::uint32_t slot) {
    co_await mx.enter(p, slot);
}

sim::SimTask<void> attempt_once(AbortableSimMutex& mx, sim::Process& p,
                                std::uint32_t slot, AbortControl ctl,
                                EnterResult* result) {
    *result = co_await mx.enter_abortable(p, slot, ctl);
}

VarId var_named(const Memory& mem, const std::string& name) {
    for (std::uint32_t i = 0; i < mem.num_variables(); ++i) {
        if (mem.name(VarId{i}) == name) {
            return VarId{i};
        }
    }
    throw std::invalid_argument("no variable " + name);
}

TEST(TournamentSimMutex, AbortAtTheRootReleasesTheNodesWonBelow) {
    // m = 3: slots 0 and 1 meet at n1, slot 2 comes up through n2, and the
    // two winners meet at the root n0. Slot 2 holds the lock. Slot 0 wins
    // n1 unopposed and runs out of patience at the root: it must retract
    // its root flag AND release n1, or slot 1 waits at n1 behind a flag
    // nobody lowers. The sweeps above cannot see a leaked n1 flag: every
    // aborter there retries, and the retry's climb rewrites it.
    sim::System sys(Protocol::WriteBack);
    TournamentSimMutex mx(sys.memory(), "tournament", 3);
    const Memory& mem = sys.memory();
    const VarId root_flag0 = var_named(mem, "tournament.n0.flag0");
    const VarId n1_flag0 = var_named(mem, "tournament.n1.flag0");
    const auto at_root = [&](const sim::Process&) {
        return mem.peek(root_flag0) == 1;
    };
    sim::Process& holder = sys.add_process(sim::Role::Writer);
    sim::Process& aborter = sys.add_process(sim::Role::Writer);
    sim::Process& follower = sys.add_process(sim::Role::Writer);
    EnterResult result = EnterResult::Acquired;
    holder.set_task(enter_once(mx, holder, 2));
    aborter.set_task(attempt_once(mx, aborter, 0, AbortControl::after(8),
                                  &result));
    follower.set_task(enter_once(mx, follower, 1));

    sim::run_solo(sys, holder.id(), 1000);
    ASSERT_TRUE(holder.finished());  // Holds the lock and never exits.
    // Slot 0 wins n1 and announces itself at the root...
    sim::run_solo(sys, aborter.id(), 1000, at_root);
    ASSERT_EQ(mem.peek(root_flag0), 1u);
    EXPECT_EQ(mem.peek(n1_flag0), 1u);
    // ...then gives up there and rolls back.
    sim::run_solo(sys, aborter.id(), 1000);
    ASSERT_TRUE(aborter.finished());
    EXPECT_EQ(result, EnterResult::Aborted);
    EXPECT_EQ(mem.peek(root_flag0), 0u);
    EXPECT_EQ(mem.peek(n1_flag0), 0u);
    // Slot 1, solo, wins n1 and reaches the root, where it waits for the
    // holder.
    sim::run_solo(sys, follower.id(), 1000, at_root);
    EXPECT_EQ(mem.peek(root_flag0), 1u);
    EXPECT_FALSE(follower.finished());
}

}  // namespace
}  // namespace rwr::mutex
