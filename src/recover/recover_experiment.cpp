#include "recover/recover_experiment.hpp"

#include <algorithm>

#include "recover/recoverable_jjj_mutex.hpp"
#include "recover/recoverable_mutex.hpp"
#include "recover/recoverable_rwlock.hpp"
#include "recover/rme_checker.hpp"

namespace rwr::recover {

std::string to_string(RecoverLockKind k) {
    switch (k) {
        case RecoverLockKind::Mutex: return "rmx";
        case RecoverLockKind::JJJMutex: return "rjjj";
        case RecoverLockKind::RwLock: return "rrw";
        case RecoverLockKind::RwLockJJJ: return "rrwj";
    }
    return "?";
}

namespace {

/// Everything a run owns; stuffed into Scenario::extra for the explorer so
/// the lock, checkers and records outlive the factory call.
struct BuiltRecoverScenario {
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<RecoverableLock> lock;
    std::unique_ptr<sim::MutualExclusionChecker> me_checker;
    std::unique_ptr<RmeChecker> rme_checker;
    std::unique_ptr<sim::FaultInjector> injector;
    std::vector<std::vector<sim::PassageRecord>> records;
};

std::unique_ptr<BuiltRecoverScenario> build(const RecoverExperimentConfig& cfg,
                                            bool throw_on_violation) {
    auto b = std::make_unique<BuiltRecoverScenario>();
    b->sys = std::make_unique<sim::System>(cfg.protocol);
    Memory& mem = b->sys->memory();

    std::uint32_t num_procs = 0;
    switch (cfg.lock) {
        case RecoverLockKind::Mutex:
            num_procs = cfg.m;
            b->lock = std::make_unique<RecoverableTournamentMutex>(mem, "rmx",
                                                                   cfg.m);
            break;
        case RecoverLockKind::JJJMutex:
            num_procs = cfg.m;
            b->lock = std::make_unique<RecoverableJJJMutex>(
                mem, "rjjj", cfg.m,
                cfg.dsm_home ? std::optional<ProcId>{ProcId{0}}
                             : std::nullopt);
            break;
        case RecoverLockKind::RwLock:
            num_procs = cfg.n + cfg.m;
            b->lock = std::make_unique<RecoverableRWLock>(mem, "rrw", cfg.n,
                                                          cfg.m, cfg.f);
            break;
        case RecoverLockKind::RwLockJJJ:
            num_procs = cfg.n + cfg.m;
            b->lock = std::make_unique<RecoverableRWLock>(
                mem, "rrwj", cfg.n, cfg.m, cfg.f, WriterLockKind::JJJ);
            break;
    }
    b->records.resize(num_procs);

    // A mutex has no reader/writer distinction (no readers: num_procs is
    // m); modelling every participant as a writer makes the ME predicate
    // "at most one in the CS", which is exactly mutual exclusion.
    const std::uint32_t readers = num_procs - cfg.m;
    sim::DriveConfig dc;
    dc.passages = cfg.passages;
    dc.cs_steps = cfg.cs_steps;
    for (std::uint32_t i = 0; i < num_procs; ++i) {
        sim::Process& p = b->sys->add_process(i < readers ? sim::Role::Reader
                                                          : sim::Role::Writer);
        dc.records = &b->records[p.id()];
        sim::install(*b->lock, p, dc);
    }

    // Observer order matters: the injector must run before the checkers so
    // a crash requested at step k is latched before the RME checker scans
    // restart counters at step k+1 (both see restarts() only after the
    // step's complete_step, so the order is for determinism, not
    // correctness).
    if (!cfg.faults.empty()) {
        b->injector =
            std::make_unique<sim::FaultInjector>(*b->sys, cfg.faults);
        b->sys->add_observer(b->injector.get());
    }
    b->me_checker =
        std::make_unique<sim::MutualExclusionChecker>(throw_on_violation);
    b->sys->add_observer(b->me_checker.get());
    RmeChecker::Options opts;
    opts.throw_on_violation = throw_on_violation;
    opts.recovery_step_bound = cfg.recovery_step_bound;
    opts.chain_recovery_step_bound = cfg.chain_recovery_step_bound;
    b->rme_checker = std::make_unique<RmeChecker>(opts);
    b->sys->add_observer(b->rme_checker.get());
    return b;
}

void aggregate(const BuiltRecoverScenario& b, RecoverExperimentResult* res) {
    harness::fold_roles(*b.sys, b.records, &res->readers, &res->writers);
    res->total_passages =
        res->readers.num_passages + res->writers.num_passages;
    // Recovery episode distribution: the Recover-section slice of each
    // completed episode, pooled over all processes.
    RecoverySummary& rec = res->recovery;
    constexpr auto kRec = static_cast<std::size_t>(Section::Recover);
    for (const auto& per_proc : b.records) {
        for (const auto& ep : per_proc) {
            if (ep.kind != sim::PassageRecord::Kind::Recovery) {
                continue;
            }
            ++rec.episodes;
            rec.mean_rmrs += static_cast<double>(ep.delta.rmrs[kRec]);
            rec.max_rmrs = std::max(rec.max_rmrs, ep.delta.rmrs[kRec]);
            rec.mean_steps += static_cast<double>(ep.delta.steps[kRec]);
            rec.max_steps = std::max(rec.max_steps, ep.delta.steps[kRec]);
        }
    }
    if (rec.episodes > 0) {
        rec.mean_rmrs /= static_cast<double>(rec.episodes);
        rec.mean_steps /= static_cast<double>(rec.episodes);
    }
}

}  // namespace

RecoverExperimentResult run_recover_experiment(
    const RecoverExperimentConfig& cfg) {
    auto b = build(cfg, /*throw_on_violation=*/false);
    sim::RunPlan plan;
    plan.sched = cfg.sched;
    plan.seed = cfg.seed;
    plan.max_steps = cfg.max_steps;
    plan.replay = cfg.replay;
    plan.record_schedule = cfg.record_schedule;
    sim::PlanResult run = sim::run_plan(*b->sys, plan);
    RecoverExperimentResult res;
    res.wall_ms = run.wall_ms;
    res.cpu_ms = run.cpu_ms;
    res.finished = run.finished;
    res.steps = run.steps;
    res.schedule = std::move(run.schedule);
    res.all_surviving_finished = b->sys->all_surviving_finished();
    res.me_violations = b->me_checker->violations();
    res.rme_violations = b->rme_checker->violations();
    res.first_violation = b->rme_checker->first_violation().empty()
                              ? b->me_checker->first_violation()
                              : b->rme_checker->first_violation();
    res.restarts = b->rme_checker->total_restarts();
    res.max_recovery_steps = b->rme_checker->max_recovery_steps();
    res.max_chain_recovery_steps = b->rme_checker->max_chain_recovery_steps();
    res.stalled_at_exit = b->sys->num_stalled();
    if (b->injector) {
        res.faults_fired = b->injector->num_fired();
        // Hard error (with per-fault diagnostics) when the plan demands
        // every fault land and some never did -- the run just measured a
        // healthier execution than the one configured.
        b->injector->assert_all_fired();
    }
    aggregate(*b, &res);
    return res;
}

sim::ScenarioFactory recover_scenario_factory(
    const RecoverExperimentConfig& cfg) {
    return [cfg]() {
        auto b = build(cfg, /*throw_on_violation=*/true);
        sim::Scenario sc;
        sc.sys = std::move(b->sys);
        sc.checker = std::move(b->me_checker);
        sc.extra = std::shared_ptr<void>(std::move(b));
        // Crash / crash-restart faults fire on victim-local per-section
        // step counts, which commute with independent steps, so reduction
        // stays sound. Stall faults resume on a *global* step-count
        // deadline: reordering independent steps moves the deadline
        // relative to the victim, so the explorer must not prune.
        for (const sim::FaultSpec& f : cfg.faults.faults) {
            if (f.kind == sim::FaultKind::Stall) {
                sc.reduction_safe = false;
            }
        }
        return sc;
    };
}

}  // namespace rwr::recover
