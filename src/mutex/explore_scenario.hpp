// Explorer-ready scenarios for the writer-mutex tier.
//
// The generic exploration checkers key on Process section markers, which
// the SimMutex interface (enter/exit) does not maintain itself; the passage
// driver (sim/passage.hpp) does, so any SimMutex goes through
// sim::explore()/explore_dfs with mutual exclusion checked on every step.
// Every participant is modelled as a writer, making the ME predicate "at
// most one process in the CS".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "mutex/sim_mutex.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/passage.hpp"
#include "sim/system.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

namespace detail {

/// m writers driving `extra->target` on `sys`, under a throwing
/// MutualExclusionChecker; `extra` keeps the mutex and target alive.
template <class Extra>
sim::Scenario mutex_scenario(std::unique_ptr<sim::System> sys,
                             std::shared_ptr<Extra> extra, std::uint32_t m,
                             std::uint64_t passages, std::uint64_t cs_steps) {
    sim::Scenario sc;
    sc.sys = std::move(sys);
    sim::DriveConfig dc;
    dc.passages = passages;
    dc.cs_steps = cs_steps;
    for (std::uint32_t s = 0; s < m; ++s) {
        sim::install(extra->target, sc.sys->add_process(sim::Role::Writer),
                     dc);
    }
    sc.checker = std::make_unique<sim::MutualExclusionChecker>(
        /*throw_on_violation=*/true);
    sc.sys->add_observer(sc.checker.get());
    sc.extra = std::move(extra);
    return sc;
}

/// drive() target for the single-abort-placement sweep: the FIRST
/// acquisition attempt of `aborter_slot` gives up after `patience` own
/// entry steps; every other attempt, its retry included, blocks -- so every
/// schedule still completes its passages and an unfinished run means a
/// genuine liveness bug, not a scheduled abort. Each abort that actually
/// fires bumps `fired`: the coverage witness for the sweep (probe patience
/// j = 0, 1, 2, ... until some j never fires -- then every reachable abort
/// point has been explored, the exact analogue of the crash adversary's
/// probe-until-unfired discipline).
struct FirstAttemptAbort {
    AbortableSimMutex& mx;
    std::uint32_t aborter_slot;
    std::uint64_t patience;
    std::atomic<std::uint64_t>* fired;
    bool armed = true;

    sim::SimTask<EnterResult> entry(sim::Process& p) {
        AbortControl ctl = AbortControl::never();
        if (armed && p.role_index() == aborter_slot) {
            armed = false;
            ctl = AbortControl::after(patience);
        }
        const EnterResult r =
            co_await mx.enter_abortable(p, p.role_index(), ctl);
        if (r == EnterResult::Aborted && fired != nullptr) {
            fired->fetch_add(1, std::memory_order_relaxed);
        }
        co_return r;
    }
    sim::SimTask<void> exit(sim::Process& p) {
        return mx.exit(p, p.role_index());
    }
};

}  // namespace detail

/// Builds the mutex from fresh memory on every call -- the factory
/// contract of the replay explorer. The SimMutex (not a SimRWLock) rides
/// in Scenario::extra.
using MutexBuilder =
    std::function<std::unique_ptr<SimMutex>(Memory&, std::uint32_t m)>;

[[nodiscard]] inline sim::ScenarioFactory mutex_scenario_factory(
    MutexBuilder builder, std::uint32_t m, std::uint64_t passages,
    std::uint64_t cs_steps) {
    return [builder = std::move(builder), m, passages, cs_steps]() {
        struct Extra {
            std::unique_ptr<SimMutex> mx;
            MutexPassage target{*mx};
        };
        auto sys = std::make_unique<sim::System>(Protocol::WriteThrough);
        auto extra = std::make_shared<Extra>(builder(sys->memory(), m));
        return detail::mutex_scenario(std::move(sys), std::move(extra), m,
                                      passages, cs_steps);
    };
}

using AbortableMutexFactory =
    std::function<std::unique_ptr<AbortableSimMutex>(Memory&, std::uint32_t m)>;

/// Scenario: m writers, with `aborter_slot`'s first attempt impatient
/// after `patience` own entry steps (detail::FirstAttemptAbort). Patience
/// is process-local state, so the abort point commutes with other
/// processes' steps exactly like any local step -- the scenario stays sound
/// under DPOR (reduction_safe). `fired` (shared across all schedules of an
/// explore() call -- hence atomic, the frontier is parallel) witnesses
/// which placements are reachable at all.
[[nodiscard]] inline sim::ScenarioFactory abortable_mutex_scenario_factory(
    AbortableMutexFactory builder, std::uint32_t m, std::uint64_t passages,
    std::uint64_t cs_steps, std::uint32_t aborter_slot, std::uint64_t patience,
    std::shared_ptr<std::atomic<std::uint64_t>> fired) {
    return [builder = std::move(builder), m, passages, cs_steps, aborter_slot,
            patience, fired = std::move(fired)]() {
        struct Extra {
            std::unique_ptr<AbortableSimMutex> mx;
            std::shared_ptr<std::atomic<std::uint64_t>> fired;
            detail::FirstAttemptAbort target;
        };
        auto sys = std::make_unique<sim::System>(Protocol::WriteThrough);
        std::unique_ptr<AbortableSimMutex> mx = builder(sys->memory(), m);
        AbortableSimMutex& ref = *mx;
        auto extra = std::make_shared<Extra>(Extra{
            std::move(mx), fired,
            detail::FirstAttemptAbort{ref, aborter_slot, patience,
                                      fired.get()}});
        return detail::mutex_scenario(std::move(sys), std::move(extra), m,
                                      passages, cs_steps);
    };
}

}  // namespace rwr::mutex
