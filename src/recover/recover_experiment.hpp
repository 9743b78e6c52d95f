// Passage experiments over the recoverable locks, crash faults included:
// the recoverable tier's analogue of harness/experiment.hpp. Powers
// bench_recoverable, the recoverable explorer tests and experiment E12.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/explorer.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"

namespace rwr::recover {

enum class RecoverLockKind {
    Mutex,      ///< RecoverableTournamentMutex over m processes (all writers).
    JJJMutex,   ///< RecoverableJJJMutex over m processes (all writers).
    RwLock,     ///< RecoverableRWLock over n readers + m writers.
    RwLockJJJ,  ///< RecoverableRWLock with the JJJ writer lock embedded.
};

[[nodiscard]] std::string to_string(RecoverLockKind k);

struct RecoverExperimentConfig {
    RecoverLockKind lock = RecoverLockKind::RwLock;
    Protocol protocol = Protocol::WriteBack;
    std::uint32_t n = 4;  ///< Readers (RwLock); ignored by Mutex.
    std::uint32_t m = 2;  ///< Writers (RwLock) / total processes (Mutex).
    std::uint32_t f = 1;  ///< RwLock group count.
    /// JJJMutex only: build the lock in DSM mode (owner_base = 0, matching
    /// this harness's slot-s-runs-on-pid-s convention), exercising the
    /// homed wake layer under whatever `protocol` says. CC protocols
    /// ignore homes, so this only changes which variables the wait loops
    /// touch -- useful for crashing INTO the wake-layer registration.
    bool dsm_home = false;
    std::uint64_t passages = 4;
    std::uint64_t cs_steps = 1;
    harness::SchedKind sched = harness::SchedKind::Random;
    std::uint64_t seed = 1;
    std::uint64_t max_steps = 50'000'000;

    /// Crash-restart (and other) faults applied during the run. With
    /// faults.require_all_fired() set, a fault that never fires makes
    /// run_recover_experiment throw (per-fault diagnostics in the message).
    sim::FaultPlan faults;
    /// Forwarded to RmeChecker (0 = no bounded-recovery check).
    std::uint64_t recovery_step_bound = 0;
    /// Forwarded to RmeChecker (0 = no chain bound): cumulative recovery
    /// steps across nested crashed-in-Recover chains.
    std::uint64_t chain_recovery_step_bound = 0;
    /// Record the schedule as ReplayScheduler choice indices.
    bool record_schedule = false;
    /// Non-empty: ignore sched/seed and replay this choice sequence.
    std::vector<std::size_t> replay;
};

/// Per-recovery-episode cost summary (Recover-section steps/RMRs of each
/// completed episode, from the driver's Kind::Recovery records).
struct RecoverySummary {
    std::uint64_t episodes = 0;
    double mean_rmrs = 0;
    std::uint64_t max_rmrs = 0;
    double mean_steps = 0;
    std::uint64_t max_steps = 0;
};

struct RecoverExperimentResult {
    bool finished = false;
    bool all_surviving_finished = false;
    std::uint64_t steps = 0;
    double wall_ms = 0;
    double cpu_ms = 0;  ///< The run loop's thread CPU time.
    harness::RoleStats readers;  ///< Empty for Mutex runs.
    harness::RoleStats writers;
    std::uint64_t total_passages = 0;
    std::uint64_t restarts = 0;            ///< Crash-restarts survived.
    std::uint64_t max_recovery_steps = 0;  ///< Longest recovery episode.
    /// Longest nested-crash chain (cumulative Recover steps).
    std::uint64_t max_chain_recovery_steps = 0;
    RecoverySummary recovery;  ///< Episode cost distribution.
    std::size_t faults_fired = 0;
    std::uint32_t stalled_at_exit = 0;  ///< Never-resumed Stall victims.
    std::uint64_t me_violations = 0;
    std::uint64_t rme_violations = 0;  ///< CSR / bounded-recovery / ME.
    std::string first_violation;
    std::vector<std::size_t> schedule;  ///< When record_schedule is set.
};

/// Runs the configured experiment once (checkers in counting mode).
RecoverExperimentResult run_recover_experiment(
    const RecoverExperimentConfig& cfg);

/// Explorer scenario factory: same system, checkers in throwing mode
/// (MutualExclusionChecker in the Scenario slot, RmeChecker + FaultInjector
/// kept alive via Scenario::extra), so explore_dfs / explore_random verify
/// ME and CS Reentry over every schedule of a crash-bearing run.
sim::ScenarioFactory recover_scenario_factory(
    const RecoverExperimentConfig& cfg);

}  // namespace rwr::recover
