// The passage driver and the run loop every simulated tier shares.
//
// The paper prices a lock section by section (Theorems 5, 17-18): RMRs in
// the entry, critical and exit sections of a passage. drive() is that
// passage, written once: Entry marker, entry section, `cs_steps` local
// steps in the CS, Exit marker, exit section, Remainder marker, one
// PassageRecord. Its target has `SimTask<void> entry(Process&)` and
// `SimTask<void> exit(Process&)`, and drive() asks it, at compile time,
// what else it supports:
//   * entry returns SimTask<EnterResult>: the attempt can abort. An
//     aborted attempt is recorded (Kind::Aborted, not a passage), takes
//     one remainder beat -- consecutive attempts are distinct scheduling
//     epochs -- and retries.
//   * recover(Process&, RecoveryOutcome&): the target survives crash-
//     restarts (the RME model). install() also sets the restart factory,
//     which re-enters drive() in Section::Recover: recover() runs, the
//     interrupted passage resumes as its outcome says, and passages are
//     counted by Process::completed_passages(), which survives restarts.
//     Each completed recovery episode is recorded (Kind::Recovery).
//     Accounting is at-least-once: a crash on the last step of an exit
//     section is counted by recovery (LockReleased). A crashed passage's
//     record is lost with its coroutine; the recovered one runs from the
//     restart.
//   * cs_steps(const Process&): a per-passage CS dwell overriding
//     DriveConfig::cs_steps.
//
// run_plan() is the run loop: scheduler choice, bounded chunks against a
// wall deadline, wall timing, and the rethrow of coroutine failures.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rmr/stats.hpp"
#include "sim/process.hpp"
#include "sim/system.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

/// What an abortable entry section reports.
enum class EnterResult : std::uint8_t { Acquired, Aborted };

/// What recover() reports after a crash-restart: nothing to repair, the
/// process holds the lock (the driver runs the CS and the exit), or the
/// crashed passage's release was completed (the passage counts).
enum class RecoveryOutcome : std::uint8_t {
    None,
    InCriticalSection,
    LockReleased,
};

/// Stats of one passage, aborted attempt or recovery episode (restart
/// until recover() returned; an episode cut short by a nested crash is
/// subsumed by the last episode of its chain).
struct PassageRecord {
    enum class Kind : std::uint8_t { Passage, Aborted, Recovery };
    SectionStats delta;  ///< Stats accrued during this record only.
    Kind kind = Kind::Passage;
};

struct DriveConfig {
    std::uint64_t passages = 1;
    /// Local steps spent inside the CS per passage (scheduling points while
    /// the process occupies the CS; >=1 so checkers can observe occupancy).
    std::uint64_t cs_steps = 1;
    /// Local steps spent in the remainder section between passages.
    std::uint64_t remainder_steps = 0;
    /// Records of every kind, in order, if non-null.
    std::vector<PassageRecord>* records = nullptr;
};

template <class T>
concept RecoverableTarget = requires(T& t, Process& p, RecoveryOutcome& o) {
    t.recover(p, o);
};

/// Runs `cfg.passages` passages of `p` through `t`, which must outlive the
/// task (see header comment).
template <class Target>
SimTask<void> drive(Target& t, Process& p, DriveConfig cfg) {
    SectionStats before = p.stats();
    const auto note = [&](PassageRecord::Kind kind) {
        if (cfg.records != nullptr) {
            cfg.records->push_back(PassageRecord{p.stats() - before, kind});
        }
    };
    std::uint64_t done = 0;
    bool in_cs = false;  // Recovery handed the lock back.
    if constexpr (RecoverableTarget<Target>) {
        if (p.section() == Section::Recover) {
            RecoveryOutcome out = RecoveryOutcome::None;
            co_await t.recover(p, out);
            note(PassageRecord::Kind::Recovery);
            in_cs = out == RecoveryOutcome::InCriticalSection;
            if (!in_cs) {
                p.set_section(Section::Remainder);
            }
            if (out == RecoveryOutcome::LockReleased) {
                p.note_passage_complete();
                note(PassageRecord::Kind::Passage);
            }
            done = p.completed_passages();
        }
    }
    while (done < cfg.passages) {
        if (!in_cs) {
            before = p.stats();
            // Built before the Entry marker: an abortable target draws its
            // abort decision here, once per attempt.
            auto attempt = t.entry(p);
            p.set_section(Section::Entry);
            if constexpr (std::same_as<decltype(attempt),
                                       SimTask<EnterResult>>) {
                const EnterResult r = co_await attempt;
                if (r == EnterResult::Aborted) {
                    p.set_section(Section::Remainder);
                    note(PassageRecord::Kind::Aborted);
                    co_await p.local_step();
                    continue;
                }
            } else {
                co_await attempt;
            }
        }
        in_cs = false;
        p.set_section(Section::Critical);
        std::uint64_t dwell = cfg.cs_steps;
        if constexpr (requires { t.cs_steps(p); }) {
            dwell = t.cs_steps(p);
        }
        for (std::uint64_t s = 0; s < dwell; ++s) {
            co_await p.local_step();
        }
        p.set_section(Section::Exit);
        co_await t.exit(p);
        p.set_section(Section::Remainder);
        p.note_passage_complete();
        ++done;
        note(PassageRecord::Kind::Passage);
        for (std::uint64_t s = 0; s < cfg.remainder_steps; ++s) {
            co_await p.local_step();
        }
    }
}

/// Makes the fresh process `p` drive `t`; a recoverable target also gets
/// the restart factory. `t` and the record vector must outlive `p`.
template <class Target>
void install(Target& t, Process& p, const DriveConfig& cfg) {
    p.set_task(drive(t, p, cfg));
    if constexpr (RecoverableTarget<Target>) {
        p.set_restart_factory(
            [&t, cfg](Process& q) { return drive(t, q, cfg); });
    }
}

/// Scheduler policy. Random is the oblivious adversary of the randomized
/// algorithms (its choices are fixed by the seed before the run);
/// AdaptiveRmr is the strong one (AdaptiveRmrScheduler).
enum class SchedKind : std::uint8_t {
    RoundRobin,
    Random,
    AdaptiveRmr,
    ObliviousRandom = Random,
};

struct RunPlan {
    SchedKind sched = SchedKind::RoundRobin;
    std::uint64_t seed = 1;
    std::uint64_t max_steps = 50'000'000;
    /// Non-empty: ignore sched/seed and replay these choice indices.
    std::vector<std::size_t> replay;
    /// Record the schedule as ReplayScheduler choice indices.
    bool record_schedule = false;
    /// >0: stop once this much wall time has passed, with a per-process
    /// dump in the diagnosis, instead of spinning until max_steps.
    std::uint64_t wall_deadline_ms = 0;
};

struct PlanResult {
    bool finished = false;  ///< Every process finished its task.
    std::uint64_t steps = 0;
    double wall_ms = 0;  ///< The scheduling loop only, not construction.
    bool deadline_expired = false;
    std::string diagnosis;              ///< Set when the deadline expired.
    std::vector<std::size_t> schedule;  ///< When record_schedule is set.
};

/// Runs `sys` (processes and observers installed) under `plan`, then
/// rethrows the first coroutine failure.
PlanResult run_plan(System& sys, const RunPlan& plan);

}  // namespace rwr::sim
