#include "harness/experiment.hpp"

#include <algorithm>

namespace rwr::harness {

namespace {

struct BuiltScenario {
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<sim::SimRWLock> lock;
    std::unique_ptr<sim::MutualExclusionChecker> checker;
    /// One record vector per process, stable address for the drivers.
    std::shared_ptr<std::vector<std::vector<sim::PassageRecord>>> records;
};

BuiltScenario build(const ExperimentConfig& cfg, bool throw_on_violation) {
    BuiltScenario b;
    b.sys = std::make_unique<sim::System>(cfg.protocol);
    b.lock = make_sim_lock(cfg.lock, b.sys->memory(), cfg.n, cfg.m, cfg.f);
    b.records =
        std::make_shared<std::vector<std::vector<sim::PassageRecord>>>();
    b.records->resize(cfg.n + cfg.m);

    sim::DriveConfig dc;
    dc.passages = cfg.passages;
    dc.cs_steps = cfg.cs_steps;
    for (std::uint32_t i = 0; i < cfg.n + cfg.m; ++i) {
        sim::Process& p = b.sys->add_process(i < cfg.n ? sim::Role::Reader
                                                       : sim::Role::Writer);
        dc.records = &(*b.records)[p.id()];
        sim::install(*b.lock, p, dc);
    }
    if (cfg.check_mutual_exclusion) {
        b.checker = std::make_unique<sim::MutualExclusionChecker>(
            throw_on_violation);
        b.sys->add_observer(b.checker.get());
    }
    return b;
}

}  // namespace

void fold_roles(const sim::System& sys,
                const std::vector<std::vector<sim::PassageRecord>>& records,
                RoleStats* readers, RoleStats* writers) {
    for (ProcId id = 0; id < sys.num_processes(); ++id) {
        RoleStats& rs =
            sys.process(id).is_reader() ? *readers : *writers;
        for (const auto& rec : records[id]) {
            if (rec.kind != sim::PassageRecord::Kind::Passage) {
                continue;
            }
            ++rs.num_passages;
            for (int s = 0; s < kNumSections; ++s) {
                rs.mean_rmrs[s] += static_cast<double>(rec.delta.rmrs[s]);
                rs.max_rmrs[s] = std::max(rs.max_rmrs[s], rec.delta.rmrs[s]);
                rs.mean_steps[s] += static_cast<double>(rec.delta.steps[s]);
                rs.max_steps[s] =
                    std::max(rs.max_steps[s], rec.delta.steps[s]);
            }
            const auto prmrs = rec.delta.passage_rmrs();
            rs.mean_passage_rmrs += static_cast<double>(prmrs);
            rs.max_passage_rmrs = std::max(rs.max_passage_rmrs, prmrs);
        }
    }
    for (RoleStats* rs : {readers, writers}) {
        if (rs->num_passages == 0) {
            continue;
        }
        const auto denom = static_cast<double>(rs->num_passages);
        for (int s = 0; s < kNumSections; ++s) {
            rs->mean_rmrs[s] /= denom;
            rs->mean_steps[s] /= denom;
        }
        rs->mean_passage_rmrs /= denom;
    }
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
    BuiltScenario b = build(cfg, /*throw_on_violation=*/false);

    // Observer order: ME checker (attached by build), injector, progress.
    std::unique_ptr<sim::FaultInjector> injector;
    if (!cfg.faults.empty()) {
        injector = std::make_unique<sim::FaultInjector>(*b.sys, cfg.faults);
        b.sys->add_observer(injector.get());
    }
    std::unique_ptr<sim::ProgressChecker> progress;
    if (cfg.progress_window > 0) {
        progress = std::make_unique<sim::ProgressChecker>(
            cfg.progress_window, /*throw_on_violation=*/false);
        b.sys->add_observer(progress.get());
    }

    sim::PlanResult run = sim::run_plan(
        *b.sys, {.sched = cfg.sched,
                 .seed = cfg.seed,
                 .max_steps = cfg.max_steps,
                 .replay = cfg.replay,
                 .record_schedule = cfg.record_schedule,
                 .wall_deadline_ms = cfg.wall_deadline_ms});
    ExperimentResult res;
    res.finished = run.finished;
    res.steps = run.steps;
    res.wall_ms = run.wall_ms;
    res.deadline_expired = run.deadline_expired;
    res.progress_diagnosis = std::move(run.diagnosis);
    res.schedule = std::move(run.schedule);
    res.all_surviving_finished = b.sys->all_surviving_finished();
    res.crashed = b.sys->num_crashed();
    res.stalled_at_exit = b.sys->num_stalled();
    if (injector) {
        // Hard error when the plan demanded every fault fire and one
        // missed (require_all_fired; per-fault diagnostics in the throw).
        injector->assert_all_fired();
    }
    if (b.checker) {
        res.max_concurrent_readers = b.checker->max_concurrent_readers();
        res.me_violations = b.checker->violations();
    }
    if (progress) {
        res.livelock = progress->livelock_detected();
        res.starvation = progress->starvation_detected();
        res.progress_diagnosis += progress->diagnosis();
    }
    fold_roles(*b.sys, *b.records, &res.readers, &res.writers);
    res.proc_rmrs = b.sys->memory().proc_rmrs();
    res.proc_rmrs.resize(cfg.n + cfg.m, 0);
    return res;
}

sim::ScenarioFactory scenario_factory(const ExperimentConfig& cfg) {
    return [cfg]() {
        BuiltScenario b = build(cfg, /*throw_on_violation=*/true);
        sim::Scenario sc;
        sc.sys = std::move(b.sys);
        sc.lock = std::move(b.lock);
        sc.checker = std::move(b.checker);
        sc.extra = b.records;
        return sc;
    };
}

}  // namespace rwr::harness
