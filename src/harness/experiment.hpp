// Passage experiments: build a system with one lock and n readers + m
// writers each performing `passages` passages, run it under a chosen
// scheduler, and aggregate per-section RMR statistics. This is the engine
// behind experiments E1, E3, E7, E8 and E10.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/locks.hpp"
#include "rmr/stats.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/fault.hpp"
#include "sim/passage.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::harness {

using SchedKind = sim::SchedKind;

struct ExperimentConfig {
    LockKind lock = LockKind::Af;
    Protocol protocol = Protocol::WriteBack;
    std::uint32_t n = 4;          ///< Readers.
    std::uint32_t m = 1;          ///< Writers.
    std::uint32_t f = 1;          ///< A_f parameter.
    std::uint64_t passages = 4;   ///< Passages per process.
    std::uint64_t cs_steps = 1;   ///< Local steps inside the CS.
    SchedKind sched = SchedKind::Random;
    std::uint64_t seed = 1;
    std::uint64_t max_steps = 50'000'000;
    bool check_mutual_exclusion = true;

    // ---- Robustness knobs (all off by default) --------------------------
    /// Crash/stall injections applied during the run (sim/fault.hpp).
    sim::FaultPlan faults;
    /// >0: attach a ProgressChecker flagging livelock/starvation when no
    /// section transition happens within this many executed steps.
    std::uint64_t progress_window = 0;
    /// Record the schedule as ReplayScheduler-compatible choice indices
    /// (ExperimentResult::schedule).
    bool record_schedule = false;
    /// Non-empty: ignore `sched`/`seed` and replay this choice sequence.
    std::vector<std::size_t> replay;
    /// >0: wall-clock deadline. A run exceeding it stops early with
    /// deadline_expired set and a per-process state dump in
    /// progress_diagnosis, instead of spinning until max_steps.
    std::uint64_t wall_deadline_ms = 0;
};

/// Per-role aggregate over all per-passage records.
struct RoleStats {
    double mean_rmrs[kNumSections] = {};
    std::uint64_t max_rmrs[kNumSections] = {};
    double mean_steps[kNumSections] = {};
    std::uint64_t max_steps[kNumSections] = {};
    double mean_passage_rmrs = 0;
    std::uint64_t max_passage_rmrs = 0;
    std::uint64_t num_passages = 0;

    [[nodiscard]] double mean_in(Section s) const {
        return mean_rmrs[static_cast<int>(s)];
    }
    [[nodiscard]] std::uint64_t max_in(Section s) const {
        return max_rmrs[static_cast<int>(s)];
    }
};

struct ExperimentResult {
    bool finished = false;
    std::uint64_t steps = 0;
    /// Wall time of the simulation loop (excludes system construction).
    double wall_ms = 0;
    /// The loop's thread CPU time (sim::PlanResult::cpu_ms). Feeds the
    /// sim_perf JSON rows: steps_per_sec = steps / (cpu_ms/1e3).
    double cpu_ms = 0;
    RoleStats readers;
    RoleStats writers;
    std::uint32_t max_concurrent_readers = 0;
    std::uint64_t me_violations = 0;
    /// Whole-run RMR total per ProcId (readers are pids [0, n), writers
    /// [n, n+m)), straight from Memory::proc_rmrs(). May be shorter than
    /// n + m; missing trailing entries are zero. Sums to the run's total
    /// RMRs -- the per-process breakdown the DSM experiments slice.
    std::vector<std::uint64_t> proc_rmrs;

    // ---- Robustness outcomes --------------------------------------------
    bool all_surviving_finished = false;  ///< Finished modulo crashed procs.
    std::uint32_t crashed = 0;            ///< Processes killed by the plan.
    /// Stall victims whose resume window never elapsed before the run
    /// ended: stuck survivors, unfinished yet not counted by `crashed`.
    std::uint32_t stalled_at_exit = 0;
    bool livelock = false;                ///< ProgressChecker: global stall.
    bool starvation = false;              ///< ProgressChecker: stuck process.
    std::string progress_diagnosis;       ///< Dump at first detection.
    std::vector<std::size_t> schedule;    ///< When record_schedule is set.
    bool deadline_expired = false;        ///< Wall deadline hit.
};

/// Runs the configured experiment once.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Folds the passages among per-process records (indexed by pid) into
/// per-role aggregates. Shared with the recoverable runner.
void fold_roles(const sim::System& sys,
                const std::vector<std::vector<sim::PassageRecord>>& records,
                RoleStats* readers, RoleStats* writers);

/// Builds an explorer scenario factory for model checking this config.
sim::ScenarioFactory scenario_factory(const ExperimentConfig& cfg);

}  // namespace rwr::harness
