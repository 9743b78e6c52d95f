// Systematic and randomized schedule exploration ("model checking lite").
//
// Coroutine frames cannot be snapshotted, so the explorer uses replay: each
// explored schedule rebuilds the scenario from scratch (deterministically)
// and replays a choice prefix, then branches. This is the CHESS-style
// approach; exponential in the branching depth, so it is used on small
// configurations where the interesting races of the algorithms already
// manifest.
//
// Three engine upgrades lift the reach of exhaustive checking well beyond
// the naive enumerator (see DESIGN.md, "Partial-order reduction"):
//
//   * Dynamic partial-order reduction (explore() with reduce=true): the
//     op-independence relation in sim/por.hpp drives sleep sets plus
//     dynamically computed backtrack sets (Flanagan-Godefroid), so the DFS
//     only branches on processes whose pending op actually conflicts with a
//     later-executed op instead of fanning out over every runnable process.
//   * Replay amortization: the last sibling at each node extends the live
//     scenario in place (and forced single-choice chains advance in place),
//     instead of rebuilding from the factory at every node, removing the
//     O(tree x depth) replay blowup of the original engine.
//   * Parallel frontier: the tree is split at a fixed depth (the top two
//     branching levels) into prefix work items dispatched over
//     harness/pool.hpp worker threads.
//     The split point does not depend on the job count and items are merged
//     in depth-first prefix order (first violation = the DFS-first, i.e.
//     lexicographically smallest, violating prefix among full-branching
//     levels), so ExploreResult is bit-identical for any `jobs` value.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/checker.hpp"
#include "sim/por.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::sim {

/// Everything needed to (re)run one configuration. The factory must build
/// an identical scenario every call (determinism is what makes replay work).
struct Scenario {
    std::unique_ptr<System> sys;
    std::unique_ptr<SimRWLock> lock;
    std::unique_ptr<MutualExclusionChecker> checker;
    /// Keeps auxiliary objects (per-process record vectors, ...) alive.
    std::shared_ptr<void> extra;
    /// Partial-order reduction is only sound when every observer of the run
    /// is insensitive to the order of independent steps. Factories must
    /// clear this when that fails -- e.g. Stall faults resume on a *global*
    /// step-count deadline, so commuting two independent steps can move the
    /// deadline relative to the victim. explore() then falls back to full
    /// branching for this scenario (reduction silently off, verdicts exact).
    bool reduction_safe = true;
};

using ScenarioFactory = std::function<Scenario()>;

struct ExploreResult {
    std::uint64_t schedules_explored = 0;
    std::uint64_t violations = 0;
    std::uint64_t incomplete_runs = 0;  ///< Hit the step budget (possible livelock).
    /// Subtrees abandoned because a forced-move chain exceeded the replay
    /// prefix bound (kMaxPrefix). Non-zero means the exploration was NOT
    /// exhaustive to the requested depth, so ok() reports it.
    std::uint64_t truncated_runs = 0;
    std::string first_violation;

    [[nodiscard]] bool ok() const {
        return violations == 0 && truncated_runs == 0;
    }
    [[nodiscard]] bool operator==(const ExploreResult&) const = default;
};

struct ExploreOptions {
    /// Free branching depth; after it, runs complete round-robin.
    int branch_depth = 8;
    /// Step budget for the round-robin completion of each schedule.
    std::uint64_t finish_budget = 100'000;
    /// Apply sleep-set + backtrack-set partial-order reduction. Verdicts
    /// (violations found / none found) match the unreduced enumeration;
    /// schedule *counts* are smaller by the reduction factor.
    bool reduce = true;
    /// Worker threads for the frontier work items (1 = serial).
    unsigned jobs = 1;
};

/// Explores all schedules of `factory`'s scenario up to the options' depth,
/// with optional partial-order reduction and a parallel frontier.
ExploreResult explore(const ScenarioFactory& factory,
                      const ExploreOptions& options);

/// Depth-first enumeration of all schedules whose first `branch_depth` steps
/// are chosen freely; after the prefix the run is completed round-robin up
/// to `finish_budget` steps. Mutual exclusion is checked on every step.
/// This is the unreduced reference enumeration (explore() with
/// reduce=false, serial); its schedule counts follow the full tree.
ExploreResult explore_dfs(const ScenarioFactory& factory, int branch_depth,
                          std::uint64_t finish_budget);

/// `num_schedules` runs under independent seeded random schedulers, each up
/// to `budget` steps. Per-run seeds are decorrelated with a SplitMix64
/// double mix (por.hpp explore_run_seed) so adjacent base seeds explore
/// disjoint schedule sets.
ExploreResult explore_random(const ScenarioFactory& factory,
                             std::uint64_t num_schedules, std::uint64_t seed,
                             std::uint64_t budget);

namespace detail {

/// Maps a recorded choice index to a process id within the current runnable
/// set. Prefixes produced by the DFS itself must always be in range --
/// `strict` makes an out-of-range index a hard logic error instead of
/// silently wrapping. The modulo wraparound is kept only for externally
/// supplied prefixes (ReplayScheduler), where graceful degradation is the
/// documented behaviour.
[[nodiscard]] ProcId resolve_choice(const System& sys, std::size_t choice,
                                    bool strict);

}  // namespace detail

}  // namespace rwr::sim
