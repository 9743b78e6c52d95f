// Adversarial crash placement for the recoverable tier.
//
// PR 4's E12b searched single crash placements for the worst recovery
// episode. Chan-Woelfel's tight RME lower bound (arXiv:2106.03185) is
// built from a far nastier adversary: one that crashes a process *again
// during the recovery its previous crash spawned*, repeatedly, and
// rotates victims so the lock keeps paying repair cost. This engine
// searches bounded families of such schedules, expressed as ordinary
// FaultPlans via the min_restarts generation gate (sim/fault.hpp):
//
//   SinglePlacements  every (victim, section, step) single crash-restart
//                     -- the E12b baseline, subsumed here.
//   NestedRecover     a first crash (Entry/Critical/Exit) followed by a
//                     second crash at step j of the recovery it spawned
//                     ({Recover, j, min_restarts 1}).
//   CrashStorm        one victim crashed at every generation 0..depth-1:
//                     the first crash in a passage section, each later
//                     one one step into the g-th recovery -- the "keep
//                     killing the recovering process" shape of the lower
//                     bound argument.
//   RoundRobinVictims two generations of crashes rotated across every
//                     victim, so repair work overlaps normal passages.
//
// Every candidate is evaluated with run_recover_experiment under the
// base config's (deterministic) scheduler; candidates whose faults did
// not all fire are discarded rather than probed in advance (a placement
// past the end of a section is data, not an error). The worst case is
// the surviving candidate maximising
//
//     score = max passage RMRs over roles + max recovery-episode RMRs
//
// with ties broken by LOWEST candidate index, so the argmax is a pure
// function of the candidate list and any parallel evaluation (see
// bench_recoverable --jobs) reduces to the same answer bit-identically.
//
// The engine also pools the per-passage and per-recovery RMR
// distributions across all surviving candidates -- the measured shape E14
// reports next to the single-run curves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "recover/recover_experiment.hpp"
#include "sim/fault.hpp"

namespace rwr::recover {

enum class AdversaryFamily : std::uint8_t {
    SinglePlacements,
    NestedRecover,
    CrashStorm,
    RoundRobinVictims,
};

[[nodiscard]] const char* to_string(AdversaryFamily f);

struct AdversaryCandidate {
    AdversaryFamily family = AdversaryFamily::SinglePlacements;
    std::string label;  ///< Human-readable placement description.
    sim::FaultPlan plan;
};

struct CrashAdversaryConfig {
    /// Lock / sizes / passages / scheduler under attack. cfg.faults is
    /// ignored (each candidate installs its own plan); use a
    /// deterministic scheduler (RoundRobin or a fixed seed) so the search
    /// is reproducible.
    RecoverExperimentConfig base;
    /// Highest step-in-section index tried per placement.
    std::uint32_t max_step = 8;
    /// Crash generations per CrashStorm chain.
    std::uint32_t storm_depth = 3;
};

struct AdversaryOutcome {
    std::size_t index = 0;  ///< Position in the enumerated candidate list.
    AdversaryCandidate candidate;
    RecoverExperimentResult result;
    double score = 0;
    bool all_fired = false;
};

/// Simple pooled distribution (per passage or per recovery episode).
struct RmrDistribution {
    std::uint64_t count = 0;
    double mean = 0;
    std::uint64_t max = 0;
};

struct CrashAdversaryReport {
    std::size_t candidates = 0;
    std::size_t discarded_unfired = 0;  ///< Plans that never fully fired.
    AdversaryOutcome worst;             ///< Argmax score, lowest index.
    RmrDistribution passage_rmrs;       ///< Pooled over surviving runs.
    RmrDistribution recovery_rmrs;      ///< Recover-section episode RMRs.
    std::uint64_t total_restarts = 0;
    std::uint64_t me_violations = 0;
    std::uint64_t rme_violations = 0;
    std::string first_violation;
};

/// Deterministic candidate list for the config (pure function): the four
/// families in declaration order, every process a victim.
[[nodiscard]] std::vector<AdversaryCandidate> enumerate_candidates(
    const CrashAdversaryConfig& cfg);

/// Runs one candidate (base config + the candidate's plan) and scores it.
[[nodiscard]] AdversaryOutcome evaluate_candidate(
    const CrashAdversaryConfig& cfg, const AdversaryCandidate& cand,
    std::size_t index);

/// Full sequential search: enumerate, evaluate, reduce. Deterministic for
/// a deterministic base scheduler.
[[nodiscard]] CrashAdversaryReport run_crash_adversary(
    const CrashAdversaryConfig& cfg);

/// Deterministic reduction used by run_crash_adversary and by parallel
/// callers: pools distributions and picks the worst surviving candidate
/// (outcomes must be supplied in enumeration order).
[[nodiscard]] CrashAdversaryReport reduce_outcomes(
    const std::vector<AdversaryOutcome>& outcomes);

}  // namespace rwr::recover
