// Abort-heavy mutex workloads with amortized RMR accounting.
//
// The claim under test (E18): JJAmortizedMutex completes passages at O(1)
// RMRs *amortized over the whole history* -- every RMR of every episode,
// aborted attempts included, divided by the number of completed passages
// -- while the tournament-style locks pay Theta(log m) per passage plus a
// full climb per aborted attempt. Per-passage accounting alone cannot see
// this: an abort's deferred cleanup (the abandoned queue entry a later
// release consumes) lands in someone else's passage. So the runner here
// takes every acquisition *episode* (one enter_abortable attempt, plus
// CS + exit when it acquires) from the passage driver's per-attempt
// records (sim/passage.hpp) and keeps two ledgers: per-episode deltas and
// the Memory-side per-history totals. The two must reconcile exactly --
// sum(episode RMRs) == Memory::total_rmrs() -- which test_abortable
// asserts; it is the proof that the amortized numbers charge every RMR
// exactly once.
//
// Abort placement is drawn from a seeded per-slot SplitMix64 stream
// (sim::stream_seed), patience uniform in [1, 12] own entry steps:
// deterministic given (seed, scheduler), so grid rows are reproducible and
// --jobs-independent. Scheduler choice selects the adversary model for
// randomized algorithms: RoundRobin (fair), ObliviousRandom (seeded
// schedule fixed before the run, blind to coin flips) or AdaptiveRmr
// (sim::AdaptiveRmrScheduler: steers every step toward a pending remote
// reference -- the strong adversary). estimate_expected_amortized runs
// seeded repeated trials and reports mean / stddev / 95% CI and the worst
// trial (strict argmax, ties to the lowest index, like crash_adversary's
// reduction), all bit-identical for any parallel split because the trial
// loop is sequential and every trial is seeded independently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "rmr/types.hpp"
#include "sim/passage.hpp"

namespace rwr::mutex {

/// Seeded abort mix: each acquisition attempt independently becomes
/// impatient with probability abort_rate, with patience uniform in
/// [1, 12] own entry steps.
struct AbortWorkload {
    double abort_rate = 0.0;
    std::uint64_t seed = 1;
};

/// Adversary model; see header comment. ObliviousRandom is
/// sim::SchedKind::Random.
using AbortSched = sim::SchedKind;
[[nodiscard]] const char* to_string(AbortSched s);

/// Builds the mutex from the run's fresh Memory. If the result is not an
/// AbortableSimMutex the workload's abort_rate is ignored (plain blocking
/// passages) -- that is how the non-abortable growth baselines (YA, JJJ)
/// ride the same grid at abort rate 0.
using AbortableMutexBuilder =
    std::function<std::unique_ptr<SimMutex>(Memory&)>;

struct AbortExperimentConfig {
    AbortableMutexBuilder builder;
    Protocol protocol = Protocol::WriteBack;
    std::uint32_t m = 2;
    std::uint64_t passages = 64;  ///< Completed passages per slot.
    std::uint64_t cs_steps = 2;
    AbortWorkload workload;
    AbortSched sched = AbortSched::RoundRobin;
    std::uint64_t sched_seed = 1;
    std::uint64_t max_steps = 8'000'000;
    bool record_episodes = false;  ///< Keep per-episode records (tests).
};

/// One bracketed acquisition episode: a single enter_abortable attempt,
/// plus CS + exit when it acquired.
struct AbortEpisode {
    bool aborted = false;
    std::uint64_t rmrs = 0;
    std::uint64_t steps = 0;
};

/// The amortized ledger. episode_rmrs is the per-history total: every RMR
/// of every episode, aborted attempts and their deferred cleanup included.
struct AmortizedStats {
    std::uint64_t episodes = 0;
    std::uint64_t aborted_episodes = 0;
    std::uint64_t passages = 0;
    std::uint64_t episode_rmrs = 0;
    std::uint64_t abort_rmrs = 0;     ///< Subset spent in aborted episodes.
    std::uint64_t abort_rmr_max = 0;  ///< Costliest single aborted episode.

    [[nodiscard]] double amortized_rmrs_per_passage() const {
        return passages == 0 ? 0.0
                             : static_cast<double>(episode_rmrs) /
                                   static_cast<double>(passages);
    }
    [[nodiscard]] double abort_rmr_mean() const {
        return aborted_episodes == 0
                   ? 0.0
                   : static_cast<double>(abort_rmrs) /
                         static_cast<double>(aborted_episodes);
    }
};

struct AbortExperimentResult {
    AmortizedStats amortized;
    std::vector<AbortEpisode> episodes;  ///< Only if record_episodes.
    std::uint64_t me_violations = 0;
    bool finished = false;          ///< Every slot completed its passages.
    std::uint64_t steps = 0;        ///< Scheduler steps executed.
    std::uint64_t memory_rmrs = 0;  ///< Memory-side per-history total.
    std::vector<std::uint64_t> proc_rmrs;
};

[[nodiscard]] AbortExperimentResult run_abort_experiment(
    const AbortExperimentConfig& cfg);

/// Repeated-trial expected-RMR estimate for randomized algorithms. Trial i
/// runs make_cfg(sim::stream_seed(seed, i)) -- the callback threads the
/// trial seed into the mutex's coin flips, the workload stream and the
/// adversary, as it sees fit -- and contributes its amortized RMRs per
/// passage. Sequential, fixed-order reduction: bit-identical regardless of
/// any surrounding parallelism.
struct TrialStats {
    std::uint64_t trials = 0;
    double mean = 0.0;
    double stddev = 0.0;  ///< Sample standard deviation.
    double ci95 = 0.0;    ///< 1.96 * stddev / sqrt(trials).
    double worst = 0.0;   ///< Max trial value (adversary's best showing).
    std::uint64_t worst_trial = 0;  ///< Its index; ties to the lowest.
};

[[nodiscard]] TrialStats estimate_expected_amortized(
    const std::function<AbortExperimentConfig(std::uint64_t)>& make_cfg,
    std::uint64_t trials, std::uint64_t seed);

}  // namespace rwr::mutex
