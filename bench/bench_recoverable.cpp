// E12 -- recoverable lock tier under crash-restart faults.
//
// Phase 1 (grid): drives the recoverable tournament mutex (rmx) and the
// recoverable RW lock (rrw) through deterministic RoundRobin passage runs
// while a FaultPlan injects `c` crash-restart faults spread over victims
// and sections (Entry / Critical / Exit, cycling). Reports per-role passage
// RMRs, total restarts, the longest recovery episode, and the mean RMRs
// spent inside Section::Recover -- the price of recovery, which the
// Golab-Ramaraju transformation keeps O(1) for a crash inside the CS and
// O(normal entry) for a crash mid-entry. The ME + RME checkers run in
// counting mode on every cell; any violation fails the binary (exit 1).
//
// Phase 2 (adversary): for tiny fixed configurations, exhaustively tries
// every single-crash placement (victim x section x step-in-section) and
// reports the argmax recovery cost -- a brute-force worst-case adversary
// over crash timing, complementing the schedule adversaries of
// bench_lowerbound.
//
// Phase 3 (E14): the recoverable tournament mutex (rmx, Theta(log n) RMRs
// per passage) against the JJJ ticket-tree mutex (rjjj, height
// log m / log log m) over growing m and crash counts under identical
// RoundRobin schedules. The separation check -- rjjj mean passage RMRs
// strictly below rmx's at the largest crash-free m -- is an exit-code
// assertion, not just a printout. Rows: "e14-rmx-cN" / "e14-rjjj-cN".
//
// Phase 4 (E14b): adversarial crash schedules from recover/crash_adversary
// (nested crash-during-recovery, crash storms, round-robin victim
// rotation) for both mutexes; fails on any ME/CSR/bounded-recovery
// violation and reports the worst schedule found plus pooled passage /
// recovery RMR distributions. Rows: "e14adv-rmx" / "e14adv-rjjj", each
// augmented with an "adversary" summary object.
//
// Determinism: RoundRobin scheduling + step-indexed fault firing makes
// every cell a pure function of its config, so --jobs N is bit-identical
// for every N (pinned by test_recover.cpp).
//
// Flags:
//   --json <path>  emit an "rwr-bench-v1" document. Crash counts are part
//                  of the lock name ("rmx-c2", "rrw-c4") so each grid cell
//                  keys a distinct row for bench_compare; each row carries
//                  sim_rmr + sim_perf plus a "recover" object {restarts,
//                  max_recovery_steps, recover-section mean RMRs,
//                  chain-recovery max, recovery-episode count/mean/max}.
//   --jobs N       worker threads (default: hardware concurrency).
//   --smoke        CI-sized grid (seconds, not minutes).
//
// Regenerating the checked-in baseline after an intended change:
//   ./build/bench/bench_recoverable --smoke --json BENCH_recover.json
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_kit.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"
#include "recover/crash_adversary.hpp"
#include "recover/recover_experiment.hpp"
#include "sim/fault.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;
using recover::RecoverExperimentConfig;
using recover::RecoverExperimentResult;
using recover::RecoverLockKind;

bool is_mutex_kind(RecoverLockKind k) {
    return k == RecoverLockKind::Mutex || k == RecoverLockKind::JJJMutex;
}

struct Cell {
    RecoverLockKind lock;
    std::uint32_t n;  ///< Readers (rrw) / 0 (rmx).
    std::uint32_t m;  ///< Writers (rrw) / processes (rmx).
    std::uint32_t f;
    std::uint32_t crashes;
};

/// Spreads `crashes` crash-restart faults over victims (round-robin) and
/// sections (Entry -> Critical -> Exit, cycling), bumping the step index
/// each full section cycle so repeated hits on a victim land at different
/// points of its passage.
sim::FaultPlan crash_plan(std::uint32_t crashes, std::uint32_t num_procs) {
    static constexpr Section kSections[3] = {Section::Entry, Section::Critical,
                                             Section::Exit};
    sim::FaultPlan plan;
    for (std::uint32_t i = 0; i < crashes; ++i) {
        plan.crash_restart(i % num_procs, kSections[i % 3], 1 + i / 3);
    }
    return plan;
}

std::uint32_t num_procs_of(const Cell& c) {
    return is_mutex_kind(c.lock) ? c.m : c.n + c.m;
}

RecoverExperimentConfig config_for(const Cell& c) {
    RecoverExperimentConfig cfg;
    cfg.lock = c.lock;
    cfg.n = c.n;
    cfg.m = c.m;
    cfg.f = c.f;
    cfg.passages = 3;
    cfg.cs_steps = 2;
    cfg.sched = SchedKind::RoundRobin;
    cfg.faults = crash_plan(c.crashes, num_procs_of(c));
    return cfg;
}

std::string lock_name(const Cell& c) {
    return to_string(c.lock) + "-c" + std::to_string(c.crashes);
}

/// A single crash-restart injection point (phase 2's search space).
struct Placement {
    ProcId victim;
    Section section;
    std::uint64_t step;
};

json::Value* json_row(json::Value* results, const std::string& lock,
                      const RecoverExperimentConfig& cfg,
                      const RecoverExperimentResult& res,
                      const Placement* placement = nullptr) {
    if (results == nullptr) {
        return nullptr;
    }
    const bool mutex = is_mutex_kind(cfg.lock);
    auto row = bench::key_row({.lock = lock,
                               .protocol = to_string(cfg.protocol),
                               .n = mutex ? 0U : cfg.n, .m = cfg.m, .f = cfg.f,
                               .threads = mutex ? cfg.m : cfg.n + cfg.m});
    row.set("sim_rmr", bench::sim_rmr(res.readers.mean_passage_rmrs,
                                      res.readers.max_passage_rmrs,
                                      res.writers.mean_passage_rmrs,
                                      res.writers.max_passage_rmrs));
    row.set("sim_perf", bench::sim_perf(res.steps, res.wall_ms));
    // Recoverable-tier extras: not interpreted by bench_compare (which only
    // gates the standard metric blocks) but recorded for the E12 tables.
    auto rec = json::Value::object();
    rec.set("restarts", res.restarts);
    rec.set("max_recovery_steps", res.max_recovery_steps);
    rec.set("max_chain_recovery_steps", res.max_chain_recovery_steps);
    rec.set("reader_recover_mean", res.readers.mean_in(Section::Recover));
    rec.set("writer_recover_mean", res.writers.mean_in(Section::Recover));
    rec.set("recovery_episodes", res.recovery.episodes);
    rec.set("recovery_mean_rmrs", res.recovery.mean_rmrs);
    rec.set("recovery_max_rmrs", res.recovery.max_rmrs);
    if (placement != nullptr) {
        rec.set("victim", static_cast<std::uint64_t>(placement->victim));
        rec.set("section", to_string(placement->section));
        rec.set("step_in_section", placement->step);
    }
    row.set("recover", std::move(rec));
    return &results->push_back(std::move(row));
}

/// Checks one cell: it ran to the end with no ME/RME violation.
void check_cell(bench::Kit& kit, const std::string& what,
                const RecoverExperimentResult& res) {
    kit.check(res.finished, what + ": run did not finish");
    kit.check(res.me_violations == 0 && res.rme_violations == 0,
              what + ": " + std::to_string(res.me_violations) + " ME + " +
                  std::to_string(res.rme_violations) +
                  " RME violation(s); first: " + res.first_violation);
}

void run_grid(bench::Kit& kit) {
    const bool smoke = kit.smoke();
    std::vector<Cell> cells;
    const std::vector<std::uint32_t> crash_counts =
        smoke ? std::vector<std::uint32_t>{0, 2}
              : std::vector<std::uint32_t>{0, 1, 2, 4};
    for (const std::uint32_t m :
         smoke ? std::vector<std::uint32_t>{2}
               : std::vector<std::uint32_t>{2, 4, 8}) {
        for (const std::uint32_t c : crash_counts) {
            cells.push_back({RecoverLockKind::Mutex, 0, m, 1, c});
        }
    }
    for (const std::uint32_t n :
         smoke ? std::vector<std::uint32_t>{4}
               : std::vector<std::uint32_t>{4, 8, 16}) {
        for (const std::uint32_t f : {1U, 2U, n}) {
            if (f > n) {
                continue;
            }
            for (const std::uint32_t c : crash_counts) {
                cells.push_back({RecoverLockKind::RwLock, n, 2, f, c});
            }
        }
    }
    std::vector<RecoverExperimentConfig> cfgs;
    cfgs.reserve(cells.size());
    for (const Cell& c : cells) {
        cfgs.push_back(config_for(c));
    }
    std::vector<RecoverExperimentResult> res(cfgs.size());
    parallel_for(cfgs.size(), kit.jobs(), [&](std::size_t i) {
        res[i] = recover::run_recover_experiment(cfgs[i]);
    });

    std::cout << "\n=== E12: recoverable passages under crash-restart "
                 "faults ===\n"
              << "(crashes spread over victims and Entry/Critical/Exit; "
                 "rd/wr rec = mean RMRs in the recovery section)\n";
    Table t({"lock", "n", "m", "f", "crashes", "restarts", "max rec steps",
             "rd mean", "wr mean", "rd rec", "wr rec", "passages"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        const RecoverExperimentResult& r = res[i];
        check_cell(kit,
                   lock_name(c) + " n=" + std::to_string(c.n) +
                       " m=" + std::to_string(c.m) +
                       " f=" + std::to_string(c.f),
                   r);
        json_row(kit.results(), lock_name(c), cfgs[i], r);
        t.row({lock_name(c), fmt(c.n), fmt(c.m), fmt(c.f), fmt(c.crashes),
               fmt(r.restarts), fmt(r.max_recovery_steps),
               fmt(r.readers.mean_passage_rmrs),
               fmt(r.writers.mean_passage_rmrs),
               fmt(r.readers.mean_in(Section::Recover)),
               fmt(r.writers.mean_in(Section::Recover)),
               fmt(r.total_passages)});
    }
    t.print();
}

// ---- Phase 2: brute-force worst-case crash placement ----------------------

/// Exhaustively crashes `base` at every (victim, section, step <= max_step)
/// placement and reports the placement maximizing the recovery episode
/// length (ties: most recovery-section RMRs). Placements past the end of a
/// victim's section never fire (restarts == 0) and are skipped -- reaching
/// them proves the step range covered the whole section.
void run_worst_case(bench::Kit& kit, const std::string& label,
                    RecoverExperimentConfig base, std::uint64_t max_step) {
    static constexpr Section kSections[3] = {Section::Entry, Section::Critical,
                                             Section::Exit};
    const std::uint32_t procs = base.lock == RecoverLockKind::Mutex
                                    ? base.m
                                    : base.n + base.m;
    std::vector<Placement> placements;
    std::vector<RecoverExperimentConfig> cfgs;
    for (ProcId v = 0; v < procs; ++v) {
        for (const Section s : kSections) {
            for (std::uint64_t step = 1; step <= max_step; ++step) {
                placements.push_back({v, s, step});
                RecoverExperimentConfig cfg = base;
                cfg.faults = sim::FaultPlan{}.crash_restart(v, s, step);
                cfgs.push_back(cfg);
            }
        }
    }
    std::vector<RecoverExperimentResult> res(cfgs.size());
    parallel_for(cfgs.size(), kit.jobs(), [&](std::size_t i) {
        res[i] = recover::run_recover_experiment(cfgs[i]);
    });

    std::size_t best = placements.size();
    std::size_t fired = 0;
    for (std::size_t i = 0; i < placements.size(); ++i) {
        check_cell(kit, label + " worst-case placement #" + std::to_string(i),
                   res[i]);
        if (res[i].restarts == 0) {
            continue;  // Placement past the end of the section: no fault.
        }
        ++fired;
        if (best == placements.size() ||
            res[i].max_recovery_steps > res[best].max_recovery_steps ||
            (res[i].max_recovery_steps == res[best].max_recovery_steps &&
             res[i].writers.mean_in(Section::Recover) >
                 res[best].writers.mean_in(Section::Recover))) {
            best = i;
        }
    }
    std::cout << "\n=== E12b: worst single crash placement, " << label
              << " (" << placements.size() << " placements, " << fired
              << " fired) ===\n";
    kit.check(best != placements.size(), label + ": no placement fired");
    if (best == placements.size()) {
        return;
    }
    const Placement& p = placements[best];
    const RecoverExperimentResult& r = res[best];
    Table t({"victim", "section", "step", "max rec steps", "rd rec", "wr rec",
             "wr mean"});
    t.row({fmt(p.victim), to_string(p.section), fmt(p.step),
           fmt(r.max_recovery_steps),
           fmt(r.readers.mean_in(Section::Recover)),
           fmt(r.writers.mean_in(Section::Recover)),
           fmt(r.writers.mean_passage_rmrs)});
    t.print();

    json_row(kit.results(), label + "-worst", cfgs[best], r, &p);
}

// ---- Phase 3 (E14): tournament vs JJJ, crash rates + adversary ------------

/// Sub-logarithmic vs Theta(log n): sweeps both recoverable mutexes over
/// growing m and crash counts under identical RoundRobin schedules. The
/// separation check is part of the binary: at the largest crash-free m the
/// JJJ mean passage RMRs must sit strictly below the tournament's (the
/// height term log m vs log m / log log m is what E14 exists to show).
void run_e14_grid(bench::Kit& kit) {
    const bool smoke = kit.smoke();
    // Smoke tops out at m=16: the first size where the JJJ tree is strictly
    // shorter than the tournament's (height 2 vs 4) by enough to beat its
    // larger per-node constant. (At m=8 and m=32 the ceil() height steps
    // land the two within noise of each other; the full grid shows the
    // separation re-opening at m=64.)
    const std::vector<std::uint32_t> ms =
        smoke ? std::vector<std::uint32_t>{2, 16}
              : std::vector<std::uint32_t>{2, 4, 8, 16, 32, 64};
    const std::vector<std::uint32_t> crash_counts =
        smoke ? std::vector<std::uint32_t>{0, 2}
              : std::vector<std::uint32_t>{0, 2, 4};
    struct E14Cell {
        RecoverLockKind lock;
        std::uint32_t m;
        std::uint32_t crashes;
    };
    std::vector<E14Cell> cells;
    for (const std::uint32_t m : ms) {
        for (const std::uint32_t c : crash_counts) {
            cells.push_back({RecoverLockKind::Mutex, m, c});
            cells.push_back({RecoverLockKind::JJJMutex, m, c});
        }
    }
    std::vector<RecoverExperimentConfig> cfgs;
    cfgs.reserve(cells.size());
    for (const E14Cell& c : cells) {
        RecoverExperimentConfig cfg;
        cfg.lock = c.lock;
        cfg.n = 0;
        cfg.m = c.m;
        cfg.f = 1;
        cfg.passages = 3;
        cfg.cs_steps = 1;
        cfg.sched = SchedKind::RoundRobin;
        cfg.faults = crash_plan(c.crashes, c.m);
        cfgs.push_back(cfg);
    }
    std::vector<RecoverExperimentResult> res(cfgs.size());
    parallel_for(cfgs.size(), kit.jobs(), [&](std::size_t i) {
        res[i] = recover::run_recover_experiment(cfgs[i]);
    });

    std::cout << "\n=== E14: recoverable tournament (rmx) vs JJJ ticket tree "
                 "(rjjj) ===\n"
              << "(identical RoundRobin schedules; mean/max passage RMRs "
                 "and recovery episode RMRs)\n";
    Table t({"lock", "m", "crashes", "mean passage", "max passage",
             "restarts", "rec episodes", "rec mean rmrs", "rec max rmrs"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const E14Cell& c = cells[i];
        const RecoverExperimentResult& r = res[i];
        const std::string name = "e14-" + to_string(c.lock) + "-c" +
                                 std::to_string(c.crashes);
        check_cell(kit, name + " m=" + std::to_string(c.m), r);
        json_row(kit.results(), name, cfgs[i], r);
        t.row({to_string(c.lock), fmt(c.m), fmt(c.crashes),
               fmt(r.writers.mean_passage_rmrs),
               fmt(r.writers.max_passage_rmrs), fmt(r.restarts),
               fmt(r.recovery.episodes), fmt(r.recovery.mean_rmrs),
               fmt(r.recovery.max_rmrs)});
    }
    t.print();

    // The separation check, on the largest crash-free cells.
    const std::uint32_t top_m = ms.back();
    double rmx_mean = 0;
    double rjjj_mean = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].m != top_m || cells[i].crashes != 0) {
            continue;
        }
        (cells[i].lock == RecoverLockKind::Mutex ? rmx_mean : rjjj_mean) =
            res[i].writers.mean_passage_rmrs;
    }
    std::cout << "separation @ m=" << top_m << " (crash-free): rmx "
              << fmt(rmx_mean) << " vs rjjj " << fmt(rjjj_mean) << "\n";
    kit.check(rjjj_mean < rmx_mean,
              "e14: JJJ mean passage RMRs (" + fmt(rjjj_mean) +
                  ") not below the tournament's (" + fmt(rmx_mean) +
                  ") at m=" + std::to_string(top_m));
}

/// Adversarial crash schedules (nested, storms, round-robin victims) for
/// both mutexes; reports the worst schedule found and the pooled passage /
/// recovery RMR distributions, and fails on any ME/CSR/bound violation.
void run_e14_adversary(bench::Kit& kit) {
    const bool smoke = kit.smoke();
    std::cout << "\n=== E14b: adversarial crash schedules (nested + storms "
                 "+ round-robin victims) ===\n";
    Table t({"lock", "m", "candidates", "unfired", "worst schedule", "score",
             "psg mean", "psg max", "rec mean", "rec max", "restarts"});
    for (const RecoverLockKind kind :
         {RecoverLockKind::Mutex, RecoverLockKind::JJJMutex}) {
        recover::CrashAdversaryConfig acfg;
        acfg.base.lock = kind;
        acfg.base.n = 0;
        acfg.base.m = smoke ? 2 : 3;
        acfg.base.f = 1;
        acfg.base.passages = 2;
        acfg.base.cs_steps = 1;
        acfg.base.sched = SchedKind::RoundRobin;
        acfg.max_step = smoke ? 4 : 8;
        acfg.storm_depth = 3;

        // Evaluate candidates in parallel; reduce deterministically (the
        // reduction is a pure fold in enumeration order, so the report is
        // bit-identical for any --jobs).
        const auto candidates = recover::enumerate_candidates(acfg);
        std::vector<recover::AdversaryOutcome> outcomes(candidates.size());
        parallel_for(candidates.size(), kit.jobs(), [&](std::size_t i) {
            outcomes[i] = recover::evaluate_candidate(acfg, candidates[i], i);
        });
        const auto rep = recover::reduce_outcomes(outcomes);

        const std::string label = "e14adv-" + to_string(kind);
        kit.check(rep.me_violations == 0 && rep.rme_violations == 0,
                  label + ": " + std::to_string(rep.me_violations) +
                      " ME + " + std::to_string(rep.rme_violations) +
                      " RME violation(s) across " +
                      std::to_string(rep.candidates) +
                      " adversarial schedules; first: " +
                      rep.first_violation);
        kit.check(rep.candidates != rep.discarded_unfired,
                  label + ": no schedule fully fired");
        if (rep.candidates == rep.discarded_unfired) {
            continue;
        }
        t.row({to_string(kind), fmt(acfg.base.m), fmt(rep.candidates),
               fmt(rep.discarded_unfired), rep.worst.candidate.label,
               fmt(rep.worst.score), fmt(rep.passage_rmrs.mean),
               fmt(rep.passage_rmrs.max), fmt(rep.recovery_rmrs.mean),
               fmt(rep.recovery_rmrs.max), fmt(rep.total_restarts)});

        if (kit.results() != nullptr) {
            RecoverExperimentConfig worst_cfg = acfg.base;
            worst_cfg.faults = rep.worst.candidate.plan;
            // Augment the worst-case row with the search-wide summary.
            json::Value& row =
                *json_row(kit.results(), label, worst_cfg, rep.worst.result);
            auto adv = json::Value::object();
            adv.set("candidates", rep.candidates);
            adv.set("discarded_unfired", rep.discarded_unfired);
            adv.set("worst_family",
                    std::string(to_string(rep.worst.candidate.family)));
            adv.set("worst_schedule", rep.worst.candidate.label);
            adv.set("worst_score", rep.worst.score);
            adv.set("passage_rmrs_mean", rep.passage_rmrs.mean);
            adv.set("passage_rmrs_max", rep.passage_rmrs.max);
            adv.set("recovery_rmrs_mean", rep.recovery_rmrs.mean);
            adv.set("recovery_rmrs_max", rep.recovery_rmrs.max);
            adv.set("total_restarts", rep.total_restarts);
            row.set("adversary", std::move(adv));
        }
    }
    t.print();
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("recoverable", argc, argv, {"--json", "--smoke", "--jobs"});
    std::cout << "bench_recoverable: recoverable mutex/RW lock passages "
                 "under crash-restart faults (jobs="
              << kit.jobs() << (kit.smoke() ? ", smoke" : "") << ")\n";
    run_grid(kit);

    const std::uint64_t max_step = kit.smoke() ? 3 : 6;
    {
        RecoverExperimentConfig base;
        base.lock = RecoverLockKind::Mutex;
        base.n = 0;
        base.m = 2;
        base.f = 1;
        base.passages = 2;
        base.cs_steps = 2;
        base.sched = SchedKind::RoundRobin;
        run_worst_case(kit, "rmx", base, max_step);
    }
    {
        RecoverExperimentConfig base;
        base.lock = RecoverLockKind::RwLock;
        base.n = 2;
        base.m = 1;
        base.f = 1;
        base.passages = 2;
        base.cs_steps = 2;
        base.sched = SchedKind::RoundRobin;
        run_worst_case(kit, "rrw", base, max_step);
    }

    run_e14_grid(kit);
    run_e14_adversary(kit);
    return kit.finish();
}
