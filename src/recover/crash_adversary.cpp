#include "recover/crash_adversary.hpp"

#include <algorithm>

namespace rwr::recover {

const char* to_string(AdversaryFamily f) {
    switch (f) {
        case AdversaryFamily::SinglePlacements: return "single";
        case AdversaryFamily::NestedRecover: return "nested-recover";
        case AdversaryFamily::CrashStorm: return "crash-storm";
        case AdversaryFamily::RoundRobinVictims: return "round-robin";
    }
    return "?";
}

namespace {

constexpr Section kPassageSections[] = {Section::Entry, Section::Critical,
                                        Section::Exit};

constexpr AdversaryFamily kFamilies[] = {
    AdversaryFamily::SinglePlacements, AdversaryFamily::NestedRecover,
    AdversaryFamily::CrashStorm, AdversaryFamily::RoundRobinVictims};

[[nodiscard]] std::uint32_t num_procs_of(const RecoverExperimentConfig& cfg) {
    const bool mutex_kind = cfg.lock == RecoverLockKind::Mutex ||
                            cfg.lock == RecoverLockKind::JJJMutex;
    return mutex_kind ? cfg.m : cfg.n + cfg.m;
}

[[nodiscard]] std::string place(ProcId v, Section s, std::uint64_t step) {
    return "v" + std::to_string(v) + " " + std::string(to_string(s)) + " s" +
           std::to_string(step);
}

}  // namespace

std::vector<AdversaryCandidate> enumerate_candidates(
    const CrashAdversaryConfig& cfg) {
    std::vector<AdversaryCandidate> out;
    const std::uint32_t victims = num_procs_of(cfg.base);

    for (const AdversaryFamily fam : kFamilies) {
        switch (fam) {
            case AdversaryFamily::SinglePlacements:
                for (ProcId v = 0; v < victims; ++v) {
                    for (const Section sec : kPassageSections) {
                        for (std::uint32_t s = 1; s <= cfg.max_step; ++s) {
                            AdversaryCandidate c;
                            c.family = fam;
                            c.label = "single " + place(v, sec, s);
                            c.plan.crash_restart(v, sec, s);
                            out.push_back(std::move(c));
                        }
                    }
                }
                break;
            case AdversaryFamily::NestedRecover:
                // First crash lands one step into a passage section; the
                // second lands at step j of the recovery it spawned
                // (min_restarts = 1 gates it to the restarted incarnation).
                for (ProcId v = 0; v < victims; ++v) {
                    for (const Section sec : kPassageSections) {
                        for (std::uint32_t j = 1; j <= cfg.max_step; ++j) {
                            AdversaryCandidate c;
                            c.family = fam;
                            c.label = "nested " + place(v, sec, 1) +
                                      " then Recover s" + std::to_string(j);
                            c.plan.crash_restart(v, sec, 1);
                            c.plan.crash_restart(v, Section::Recover, j,
                                                 /*min_restarts=*/1);
                            out.push_back(std::move(c));
                        }
                    }
                }
                break;
            case AdversaryFamily::CrashStorm:
                // Keep killing the same victim: generation g >= 1 crashes
                // one step into the g-th recovery.
                for (ProcId v = 0; v < victims; ++v) {
                    for (const Section sec : kPassageSections) {
                        AdversaryCandidate c;
                        c.family = fam;
                        c.label = "storm " + place(v, sec, 1) + " x" +
                                  std::to_string(cfg.storm_depth);
                        c.plan.crash_restart(v, sec, 1);
                        for (std::uint32_t g = 1; g < cfg.storm_depth; ++g) {
                            c.plan.crash_restart(v, Section::Recover, 1,
                                                 /*min_restarts=*/g);
                        }
                        out.push_back(std::move(c));
                    }
                }
                break;
            case AdversaryFamily::RoundRobinVictims:
                // Every victim crashed once in `sec`, then once more inside
                // its own recovery, so repair work from the whole fleet
                // overlaps the survivors' passages.
                for (const Section sec : kPassageSections) {
                    AdversaryCandidate c;
                    c.family = fam;
                    c.label = std::string("round-robin ") + to_string(sec) +
                              " x" + std::to_string(victims) + " +Recover";
                    for (ProcId v = 0; v < victims; ++v) {
                        c.plan.crash_restart(v, sec, 1);
                    }
                    for (ProcId v = 0; v < victims; ++v) {
                        c.plan.crash_restart(v, Section::Recover, 1,
                                             /*min_restarts=*/1);
                    }
                    out.push_back(std::move(c));
                }
                break;
        }
    }
    return out;
}

AdversaryOutcome evaluate_candidate(const CrashAdversaryConfig& cfg,
                                    const AdversaryCandidate& cand,
                                    std::size_t index) {
    AdversaryOutcome o;
    o.index = index;
    o.candidate = cand;
    RecoverExperimentConfig run_cfg = cfg.base;
    run_cfg.faults = cand.plan;  // Exploratory: require_all_fired stays off.
    o.result = run_recover_experiment(run_cfg);
    o.all_fired = o.result.faults_fired == cand.plan.faults.size();
    const std::uint64_t worst_passage = std::max(
        o.result.readers.max_passage_rmrs, o.result.writers.max_passage_rmrs);
    o.score = static_cast<double>(worst_passage) +
              static_cast<double>(o.result.recovery.max_rmrs);
    return o;
}

CrashAdversaryReport reduce_outcomes(
    const std::vector<AdversaryOutcome>& outcomes) {
    CrashAdversaryReport rep;
    bool have_worst = false;
    double worst_passage_sum = 0;
    double recovery_sum = 0;
    for (const AdversaryOutcome& o : outcomes) {
        ++rep.candidates;
        // Violations count no matter how the plan landed: a partially
        // fired plan is just a milder adversary.
        rep.me_violations += o.result.me_violations;
        rep.rme_violations += o.result.rme_violations;
        if (rep.first_violation.empty()) {
            rep.first_violation = o.result.first_violation;
        }
        if (!o.result.finished) {
            ++rep.rme_violations;
            if (rep.first_violation.empty()) {
                rep.first_violation =
                    "candidate '" + o.candidate.label + "' did not finish";
            }
        }
        if (!o.all_fired) {
            ++rep.discarded_unfired;
            continue;
        }
        rep.total_restarts += o.result.restarts;
        for (const harness::RoleStats* rs :
             {&o.result.readers, &o.result.writers}) {
            rep.passage_rmrs.count += rs->num_passages;
            worst_passage_sum += rs->mean_passage_rmrs *
                                 static_cast<double>(rs->num_passages);
            rep.passage_rmrs.max =
                std::max(rep.passage_rmrs.max, rs->max_passage_rmrs);
        }
        rep.recovery_rmrs.count += o.result.recovery.episodes;
        recovery_sum += o.result.recovery.mean_rmrs *
                        static_cast<double>(o.result.recovery.episodes);
        rep.recovery_rmrs.max =
            std::max(rep.recovery_rmrs.max, o.result.recovery.max_rmrs);
        // Strict > keeps the LOWEST index on ties: the reduction is a pure
        // fold over enumeration order, so any parallel evaluation reduces
        // to the same worst case.
        if (!have_worst || o.score > rep.worst.score) {
            rep.worst = o;
            have_worst = true;
        }
    }
    if (rep.passage_rmrs.count > 0) {
        rep.passage_rmrs.mean =
            worst_passage_sum / static_cast<double>(rep.passage_rmrs.count);
    }
    if (rep.recovery_rmrs.count > 0) {
        rep.recovery_rmrs.mean =
            recovery_sum / static_cast<double>(rep.recovery_rmrs.count);
    }
    return rep;
}

CrashAdversaryReport run_crash_adversary(const CrashAdversaryConfig& cfg) {
    const auto candidates = enumerate_candidates(cfg);
    std::vector<AdversaryOutcome> outcomes;
    outcomes.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        outcomes.push_back(evaluate_candidate(cfg, candidates[i], i));
    }
    return reduce_outcomes(outcomes);
}

}  // namespace rwr::recover
