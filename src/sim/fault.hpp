// Crash-fault injection for simulated executions.
//
// A FaultPlan names, per fault, a victim process, a section, a step count
// within that section, and a kind:
//   * Crash -- the victim halts forever after executing that step (the
//     crash-stop model of the recoverable-mutual-exclusion literature,
//     minus recovery: announcements the victim made in shared memory stay
//     behind, which is exactly what makes a blocking lock starve).
//   * CrashRestart -- the crash-*restart* model of that literature (Golab-
//     Ramaraju; Chan-Woelfel arXiv:2106.03185): the victim's private state
//     (its coroutine stack) is wiped without observing the step's response
//     and, under the CC protocols, all of its cached copies are evicted;
//     shared-memory *values* persist. The process then restarts in
//     Section::Recover running a task built by its restart factory
//     (Process::set_restart_factory; see sim::install in sim/passage.hpp).
//   * Stall -- the victim is paused for a given number of *global* steps,
//     modelling a preempted or swapped-out thread, then resumes.
//
// The FaultInjector is a StepObserver: it watches each executed step and
// fires a fault the moment the victim has executed `step_in_section` steps
// while in the matching section (counted cumulatively across passages).
// Because faults are keyed to the deterministic step stream, a run under a
// ReplayScheduler with the same FaultPlan reproduces the faulty execution
// exactly -- see ProgressChecker (sim/checker.hpp) and RecordingScheduler
// (sim/scheduler.hpp) for the detection + trace side.
//
// Crash CHAINS (the adversarial-placement engine's bread and butter): a
// FaultSpec may carry `min_restarts`, in which case the injector neither
// counts nor fires it until the victim has survived that many
// crash-restarts. This is what makes nested placements expressible --
// {victim, Section::Recover, step 2, min_restarts 1} is "crash the victim
// two steps into the recovery of its first crash", and a storm is a list of
// specs with min_restarts 0, 1, 2, ... Without the gate, every spec keyed
// to the same (victim, section) races the others on one shared step
// stream and only the first generation is cleanly addressable.
//
// Plans used as experiment inputs should set `require_all_fired()`: the
// runner then calls FaultInjector::assert_all_fired() at run end and any
// fault that never fired is a hard error naming the fault (victim,
// section, step, generation) -- instead of silently measuring a healthier
// execution than the one asked for.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hpp"

namespace rwr::sim {

enum class FaultKind : std::uint8_t { Crash, CrashRestart, Stall };

[[nodiscard]] inline const char* to_string(FaultKind k) {
    switch (k) {
        case FaultKind::Crash: return "crash";
        case FaultKind::CrashRestart: return "crash-restart";
        case FaultKind::Stall: return "stall";
    }
    return "?";
}

struct FaultSpec {
    ProcId victim = 0;
    Section section = Section::Entry;
    /// Fire after the victim has executed this many steps in `section`
    /// (1 = immediately after its first such step).
    std::uint64_t step_in_section = 1;
    FaultKind kind = FaultKind::Crash;
    /// Stall only: global steps executed by *any* process before the victim
    /// resumes. Resumption is evaluated only when a step executes, so if
    /// the rest of the system quiesces (finishes, crashes, or blocks)
    /// before the window elapses, the stall never ends: the run terminates
    /// with the victim still stalled() and unfinished -- observationally a
    /// crash, except num_crashed()/all_surviving_finished() do NOT count it
    /// (it is a stuck survivor, not a dead process; System::num_stalled()
    /// tells them apart). Pinned by
    /// FaultInjection.UnresumedStallDegeneratesToACrash.
    std::uint64_t stall_steps = 0;
    /// Generation gate: the spec is invisible (steps not even counted)
    /// until the victim's restarts() reaches this value. 0 = ungated.
    std::uint64_t min_restarts = 0;

    [[nodiscard]] std::string describe() const {
        std::ostringstream os;
        os << to_string(kind) << " v" << victim << " " << to_string(section)
           << " step " << step_in_section;
        if (min_restarts > 0) {
            os << " after " << min_restarts << " restart(s)";
        }
        if (kind == FaultKind::Stall) {
            os << " for " << stall_steps << " steps";
        }
        return os.str();
    }
};

struct FaultPlan {
    std::vector<FaultSpec> faults;
    /// When set, runners treat any fault that never fired as a hard error
    /// (FaultInjector::assert_all_fired). Off by default: exploratory
    /// placement probes legitimately walk past the end of a section.
    bool require_all_fired_ = false;

    FaultPlan& crash(ProcId victim, Section section,
                     std::uint64_t step_in_section = 1,
                     std::uint64_t min_restarts = 0) {
        faults.push_back({victim, section, step_in_section,
                          FaultKind::Crash, 0, min_restarts});
        return *this;
    }
    FaultPlan& crash_restart(ProcId victim, Section section,
                             std::uint64_t step_in_section = 1,
                             std::uint64_t min_restarts = 0) {
        faults.push_back({victim, section, step_in_section,
                          FaultKind::CrashRestart, 0, min_restarts});
        return *this;
    }
    FaultPlan& stall(ProcId victim, Section section,
                     std::uint64_t step_in_section, std::uint64_t steps) {
        faults.push_back({victim, section, step_in_section,
                          FaultKind::Stall, steps, 0});
        return *this;
    }
    FaultPlan& require_all_fired(bool on = true) {
        require_all_fired_ = on;
        return *this;
    }
    [[nodiscard]] bool empty() const { return faults.empty(); }
};

class FaultInjector final : public StepObserver {
   public:
    /// Validates every victim against the system at install time: a typo'd
    /// pid would otherwise sit silently unfired for the whole run (add
    /// processes before constructing the injector).
    FaultInjector(System& sys, FaultPlan plan)
        : sys_(sys), plan_(std::move(plan)) {
        for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
            if (plan_.faults[i].victim >= sys.num_processes()) {
                throw std::invalid_argument(
                    "FaultInjector: fault #" + std::to_string(i) + " (" +
                    plan_.faults[i].describe() + ") names victim p" +
                    std::to_string(plan_.faults[i].victim) +
                    " but the system has only " +
                    std::to_string(sys.num_processes()) + " process(es)");
            }
        }
        fired_.assign(plan_.faults.size(), false);
        steps_in_section_.assign(plan_.faults.size(), 0);
    }

    void on_step(const System& sys, const Process& p, const Op& op,
                 const OpResult& res) override {
        (void)op;
        (void)res;
        // Resume stalls that have served their time. Resumption is checked
        // on every executed step, so it is deterministic in the step index.
        for (std::size_t i = 0; i < stalled_.size();) {
            if (sys.steps_executed() >= stalled_[i].second) {
                sys_.process(stalled_[i].first).set_stalled(false);
                stalled_[i] = stalled_.back();
                stalled_.pop_back();
            } else {
                ++i;
            }
        }
        for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
            if (fired_[i]) {
                continue;
            }
            const FaultSpec& spec = plan_.faults[i];
            if (p.id() != spec.victim || p.section() != spec.section) {
                continue;
            }
            // Generation gate: restarts() increments at the END of the
            // crashing step (Process::complete_step), so the gate opens on
            // the victim's first post-restart step -- its recovery task's
            // first step is addressable as {Recover, 1, min_restarts g}.
            if (p.restarts() < spec.min_restarts) {
                continue;
            }
            if (++steps_in_section_[i] < spec.step_in_section) {
                continue;
            }
            fired_[i] = true;
            ++num_fired_;
            if (spec.kind == FaultKind::Crash) {
                sys_.process(spec.victim).crash();
            } else if (spec.kind == FaultKind::CrashRestart) {
                // Evict first: the restarted process must re-fetch every
                // variable it touches, including during recovery itself.
                sys_.memory().evict_all(spec.victim);
                sys_.process(spec.victim).crash_restart();
            } else {
                sys_.process(spec.victim).set_stalled(true);
                stalled_.emplace_back(spec.victim,
                                      sys.steps_executed() + spec.stall_steps);
            }
        }
    }

    [[nodiscard]] std::size_t num_fired() const { return num_fired_; }
    [[nodiscard]] std::size_t num_unfired() const {
        return plan_.faults.size() - num_fired_;
    }
    [[nodiscard]] bool fired(std::size_t fault_index) const {
        return fired_.at(fault_index);
    }
    [[nodiscard]] const FaultPlan& plan() const { return plan_; }

    /// One line per unfired fault: which, where it was aimed, and how many
    /// matching steps the victim actually executed -- enough to tell "the
    /// section is shorter than the step index" from "the gate never opened".
    [[nodiscard]] std::string describe_unfired() const {
        std::ostringstream os;
        for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
            if (fired_[i]) {
                continue;
            }
            if (os.tellp() > 0) {
                os << "; ";
            }
            os << "fault #" << i << " (" << plan_.faults[i].describe()
               << ") unfired after " << steps_in_section_[i]
               << " matching step(s)";
        }
        return os.str();
    }

    /// Hard-errors (std::runtime_error) if the plan demands all faults fire
    /// and any did not. Runners call this at run end when the plan has
    /// require_all_fired() set.
    void assert_all_fired() const {
        if (!plan_.require_all_fired_ || num_unfired() == 0) {
            return;
        }
        throw std::runtime_error("FaultPlan: " +
                                 std::to_string(num_unfired()) +
                                 " fault(s) never fired: " +
                                 describe_unfired());
    }

   private:
    System& sys_;
    FaultPlan plan_;
    std::vector<bool> fired_;
    std::vector<std::uint64_t> steps_in_section_;
    /// (victim, global step at which to resume).
    std::vector<std::pair<ProcId, std::uint64_t>> stalled_;
    std::size_t num_fired_ = 0;
};

}  // namespace rwr::sim
