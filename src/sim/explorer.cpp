#include "sim/explorer.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/pool.hpp"

namespace rwr::sim {

namespace detail {

ProcId resolve_choice(const System& sys, std::size_t choice, bool strict) {
    const std::vector<ProcId>& runnable = sys.runnable();
    if (runnable.empty()) {
        throw std::logic_error(
            "explorer: replay choice with no runnable process");
    }
    if (choice >= runnable.size()) {
        if (strict) {
            throw std::logic_error(
                "explorer: DFS-generated replay choice " +
                std::to_string(choice) + " out of range (runnable width " +
                std::to_string(runnable.size()) +
                ") -- internal prefixes must never wrap");
        }
        choice %= runnable.size();
    }
    return runnable[choice];
}

}  // namespace detail

namespace {

/// Forced-move chain guard: longest internally generated replay prefix.
constexpr std::size_t kMaxPrefix = 4096;

/// Branching levels enumerated serially into prefix work items. Fixed
/// regardless of `jobs` so results are bit-identical for any job count.
constexpr int kSplitDepth = 2;

/// One executed step on the current DFS path.
struct StepRec {
    ProcId pid = 0;
    Op op;
};

/// A frontier leaf: the prefix (choices + executed steps) and inherited
/// sleep set of a subtree handed to the worker pool.
struct WorkItem {
    std::vector<std::size_t> choices;
    std::vector<StepRec> path;
    SleepSet sleep;
    int depth = 0;
};

/// Frontier nodes and work items in depth-first preorder; merging partial
/// results in this order reproduces the serial DFS exactly, so the merged
/// ExploreResult (first_violation included) is independent of the job
/// count and of the split depth.
struct Event {
    ExploreResult partial;  ///< Frontier-level node result (item < 0).
    int item = -1;          ///< Index into the work-item array, or -1.
};

void merge_into(ExploreResult& into, const ExploreResult& part) {
    into.schedules_explored += part.schedules_explored;
    into.violations += part.violations;
    into.incomplete_runs += part.incomplete_runs;
    into.truncated_runs += part.truncated_runs;
    if (into.first_violation.empty()) {
        into.first_violation = part.first_violation;
    }
}

/// A freshly rebuilt scenario positioned after a strict replay of
/// `choices`. The last choice of a child prefix is a step the DFS has not
/// executed before, so the replay itself may uncover a violation.
struct Positioned {
    Scenario sc;
    bool violated = false;
    std::string violation;
};

Positioned rebuild(const ScenarioFactory& factory,
                   const std::vector<std::size_t>& choices) {
    Positioned pos;
    pos.sc = factory();
    System& sys = *pos.sc.sys;
    sys.start_all();
    try {
        for (const std::size_t choice : choices) {
            sys.step(detail::resolve_choice(sys, choice, /*strict=*/true));
        }
    } catch (const InvariantViolation& e) {
        pos.violated = true;
        pos.violation = e.what();
    }
    return pos;
}

/// Completes the live run round-robin up to `budget` steps and reports the
/// verdict. Consumes the state.
struct TailOutcome {
    bool violated = false;
    bool finished = false;
    std::string violation;
};

TailOutcome run_tail(System& sys, std::uint64_t budget) {
    TailOutcome out;
    try {
        RoundRobinScheduler rr;
        const std::vector<ProcId>& runnable = sys.runnable();
        std::uint64_t steps = 0;
        while (steps < budget && !runnable.empty()) {
            sys.step(rr.pick(sys, runnable));
            ++steps;
        }
        sys.check_failures();
        out.finished = sys.all_finished();
    } catch (const InvariantViolation& e) {
        out.violated = true;
        out.violation = e.what();
    }
    return out;
}

/// The one-schedule accounting of a node's round-robin completion.
ExploreResult one_schedule(const TailOutcome& t) {
    ExploreResult r;
    r.schedules_explored = 1;
    if (t.violated) {
        r.violations = 1;
        r.first_violation = t.violation;
    } else if (!t.finished) {
        r.incomplete_runs = 1;
    }
    return r;
}

ExploreResult one_violation(const std::string& what) {
    ExploreResult r;
    r.schedules_explored = 1;
    r.violations = 1;
    r.first_violation = what;
    return r;
}

/// Depth-first explorer for one subtree (a work item). Owns the replay
/// path, the live scenario amortization and, in reduce mode, the
/// Flanagan-Godefroid backtrack/sleep machinery.
class SubtreeExplorer {
  public:
    SubtreeExplorer(const ScenarioFactory& factory, const ExploreOptions& opt,
                    bool reduce)
        : factory_(factory), opt_(opt), reduce_(reduce) {}

    [[nodiscard]] ExploreResult run(const WorkItem& item) {
        res_ = ExploreResult{};
        choices_ = item.choices;
        path_ = item.path;
        path_frame_.assign(path_.size(), -1);
        frames_.clear();
        Positioned pos = rebuild(factory_, choices_);
        if (pos.violated) {
            // Item prefixes were executed violation-free by the frontier
            // builder; a violating strict replay would be an engine bug,
            // but account for it as a violating node rather than crash.
            merge_into(res_, one_violation(pos.violation));
            return res_;
        }
        node(std::move(pos.sc), item.sleep, item.depth);
        return res_;
    }

  private:
    /// One branching node of the DFS. `enabled`/`pending` snapshot the
    /// runnable set; `backtrack` is the DPOR to-explore set, grown by race
    /// detection in descendants; `sleep` grows as sibling subtrees finish.
    struct Frame {
        std::vector<ProcId> enabled;
        std::vector<Op> pending;
        std::vector<ProcId> backtrack;
        std::vector<ProcId> done;
        SleepSet sleep;
    };

    static bool contains(const std::vector<ProcId>& v, ProcId p) {
        for (const ProcId q : v) {
            if (q == p) {
                return true;
            }
        }
        return false;
    }

    /// DPOR race detection for process q's pending op at the current
    /// state: find the last executed path step by another process that
    /// conflicts with it; the alternative order must then be scheduled at
    /// the state that step was taken from. Steps with no frame (forced
    /// moves, frontier prefix) need no addition: forced states have exactly
    /// one enabled process, and frontier levels already branch on every
    /// non-slept enabled process.
    void detect_race(ProcId q, const Op& op) {
        for (std::size_t i = path_.size(); i-- > 0;) {
            const StepRec& rec = path_[i];
            if (rec.pid == q || ops_independent(rec.op, op)) {
                continue;
            }
            const int fid = path_frame_[i];
            if (fid >= 0) {
                Frame& f = frames_[static_cast<std::size_t>(fid)];
                if (contains(f.enabled, q)) {
                    if (!contains(f.backtrack, q)) {
                        f.backtrack.push_back(q);
                    }
                } else {
                    // q was not enabled there; conservatively schedule
                    // every alternative (Flanagan-Godefroid fallback).
                    for (const ProcId p : f.enabled) {
                        if (!contains(f.backtrack, p)) {
                            f.backtrack.push_back(p);
                        }
                    }
                }
            }
            return;  // Only the *last* conflicting step matters.
        }
    }

    void push_step(std::size_t choice, ProcId pid, const Op& op, int frame) {
        choices_.push_back(choice);
        path_.push_back({pid, op});
        path_frame_.push_back(frame);
    }

    void pop_step() {
        choices_.pop_back();
        path_.pop_back();
        path_frame_.pop_back();
    }

    void unwind(std::size_t base_len) {
        choices_.resize(base_len);
        path_.resize(base_len);
        path_frame_.resize(base_len);
    }

    /// Explores the subtree rooted at the state of `live` with `depth`
    /// branching decisions remaining. Consumes `live`.
    void node(Scenario live, SleepSet sleep, int depth) {
        System& sys = *live.sys;
        const std::size_t base_len = path_.size();
        if (depth <= 0) {
            // Leaf: complete the live run in place.
            merge_into(res_, one_schedule(run_tail(sys, opt_.finish_budget)));
            return;
        }
        // Forced-move advance: a single runnable process is not a real
        // choice; extend the live run in place without burning depth (and
        // without a factory rebuild per link, unlike the original engine).
        while (sys.runnable().size() == 1) {
            if (path_.size() >= kMaxPrefix) {
                ExploreResult part =
                    one_schedule(run_tail(sys, opt_.finish_budget));
                part.truncated_runs = 1;
                merge_into(res_, part);
                unwind(base_len);
                return;
            }
            const ProcId p = sys.runnable()[0];
            if (reduce_ && sleep_contains(sleep, p)) {
                // The only continuation is one an explored sibling already
                // covers (sleep-set equivalence): prune.
                unwind(base_len);
                return;
            }
            const Op op = sys.process(p).pending();
            try {
                sys.step(p);
            } catch (const InvariantViolation& e) {
                merge_into(res_, one_violation(e.what()));
                unwind(base_len);
                return;
            }
            push_step(0, p, op, /*frame=*/-1);
            if (reduce_) {
                sleep = sleep_after_step(sleep, p, op);
                // The stepped process surfaced a new pending op whose races
                // against earlier steps must be detected now -- it may be
                // executed by the next forced link before any branching
                // node runs a full detection pass.
                if (sys.process(p).has_pending() &&
                    !sys.process(p).crashed()) {
                    detect_race(p, sys.process(p).pending());
                }
            }
        }
        if (sys.runnable().empty()) {
            // Terminal: every process finished (or crashed for good).
            merge_into(res_, one_schedule(run_tail(sys, opt_.finish_budget)));
            unwind(base_len);
            return;
        }

        // Branching node (>= 2 alternatives). Count it via a fresh-copy
        // round-robin completion -- the live state must survive for the
        // last child -- and prune the subtree if the completion violates.
        {
            Positioned copy = rebuild(factory_, choices_);
            if (copy.violated) {
                merge_into(res_, one_violation(copy.violation));
                unwind(base_len);
                return;
            }
            const TailOutcome t = run_tail(*copy.sc.sys, opt_.finish_budget);
            merge_into(res_, one_schedule(t));
            if (t.violated) {
                unwind(base_len);
                return;  // Do not descend below a violating prefix.
            }
        }

        Frame fr;
        fr.enabled = sys.runnable();
        fr.pending.reserve(fr.enabled.size());
        for (const ProcId p : fr.enabled) {
            fr.pending.push_back(sys.process(p).pending());
        }
        fr.sleep = sleep;
        if (reduce_) {
            // Full race-detection pass for every pending op at this state
            // (additions target ancestor frames), then seed the backtrack
            // set with the first non-slept process; races found in the
            // explored subtrees grow it dynamically.
            for (std::size_t k = 0; k < fr.enabled.size(); ++k) {
                detect_race(fr.enabled[k], fr.pending[k]);
            }
            for (const ProcId p : fr.enabled) {
                if (!sleep_contains(sleep, p)) {
                    fr.backtrack.push_back(p);
                    break;
                }
            }
        }
        const int fid = static_cast<int>(frames_.size());
        frames_.push_back(std::move(fr));

        bool live_available = true;
        for (;;) {
            // Re-fetch the frame: recursion below may reallocate frames_.
            Frame& f = frames_[static_cast<std::size_t>(fid)];
            int ci = -1;
            for (std::size_t k = 0; k < f.enabled.size(); ++k) {
                const ProcId p = f.enabled[k];
                if (contains(f.done, p)) {
                    continue;
                }
                if (reduce_ && (sleep_contains(f.sleep, p) ||
                                !contains(f.backtrack, p))) {
                    continue;
                }
                ci = static_cast<int>(k);
                break;
            }
            if (ci < 0) {
                break;
            }
            const ProcId pid = f.enabled[static_cast<std::size_t>(ci)];
            const Op op = f.pending[static_cast<std::size_t>(ci)];
            f.done.push_back(pid);
            // Can any further sibling still be explored after this one?
            // (Backtrack additions from the subtree below are a subset of
            // enabled \ done \ sleep, so this test is exact.)
            bool more_possible = false;
            for (const ProcId p : f.enabled) {
                if (p == pid || contains(f.done, p) ||
                    (reduce_ && sleep_contains(f.sleep, p))) {
                    continue;
                }
                more_possible = true;
                break;
            }
            const SleepSet child_sleep =
                reduce_ ? sleep_after_step(f.sleep, pid, op) : SleepSet{};
            push_step(static_cast<std::size_t>(ci), pid, op, fid);
            if (!more_possible && live_available) {
                // Last sibling: extend the live scenario in place instead
                // of replaying the whole prefix from the factory.
                live_available = false;
                try {
                    sys.step(pid);
                } catch (const InvariantViolation& e) {
                    merge_into(res_, one_violation(e.what()));
                    pop_step();
                    if (reduce_) {
                        frames_[static_cast<std::size_t>(fid)]
                            .sleep.push_back({pid, op});
                    }
                    continue;
                }
                node(std::move(live), child_sleep, depth - 1);
            } else {
                Positioned pos = rebuild(factory_, choices_);
                if (pos.violated) {
                    merge_into(res_, one_violation(pos.violation));
                } else {
                    node(std::move(pos.sc), child_sleep, depth - 1);
                }
            }
            pop_step();
            if (reduce_) {
                frames_[static_cast<std::size_t>(fid)].sleep.push_back(
                    {pid, op});
            }
        }
        frames_.pop_back();
        unwind(base_len);
    }

    const ScenarioFactory& factory_;
    const ExploreOptions& opt_;
    const bool reduce_;

    ExploreResult res_;
    std::vector<std::size_t> choices_;
    std::vector<StepRec> path_;
    std::vector<int> path_frame_;  ///< Frame id per path step, -1 if none.
    std::vector<Frame> frames_;
};

/// Serial enumeration of the top kSplitDepth branching levels. Interior
/// nodes are evaluated immediately; subtrees at the split boundary become
/// work items. In reduce mode these levels use sleep sets with otherwise
/// full branching -- sound on its own and computable top-down, so items
/// never need backtrack additions above their base.
class FrontierBuilder {
  public:
    FrontierBuilder(const ScenarioFactory& factory, const ExploreOptions& opt,
                    bool reduce)
        : factory_(factory), opt_(opt), reduce_(reduce) {}

    void run() {
        frontier({}, {}, {}, kSplitDepth, opt_.branch_depth);
    }

    [[nodiscard]] const std::vector<Event>& events() const { return events_; }
    [[nodiscard]] const std::vector<WorkItem>& items() const {
        return items_;
    }

  private:
    void emit_item(std::vector<std::size_t> choices, std::vector<StepRec> path,
                   SleepSet sleep, int depth) {
        items_.push_back(
            {std::move(choices), std::move(path), std::move(sleep), depth});
        Event ev;
        ev.item = static_cast<int>(items_.size()) - 1;
        events_.push_back(std::move(ev));
    }

    void emit_partial(ExploreResult partial) {
        Event ev;
        ev.partial = std::move(partial);
        events_.push_back(std::move(ev));
    }

    void frontier(std::vector<std::size_t> choices, std::vector<StepRec> path,
                  SleepSet sleep, int levels, int depth) {
        if (levels <= 0 || depth <= 0) {
            emit_item(std::move(choices), std::move(path), std::move(sleep),
                      depth);
            return;
        }
        Positioned pos = rebuild(factory_, choices);
        if (pos.violated) {
            emit_partial(one_violation(pos.violation));
            return;
        }
        System& sys = *pos.sc.sys;
        while (sys.runnable().size() == 1) {
            if (path.size() >= kMaxPrefix) {
                ExploreResult part =
                    one_schedule(run_tail(sys, opt_.finish_budget));
                part.truncated_runs = 1;
                emit_partial(std::move(part));
                return;
            }
            const ProcId p = sys.runnable()[0];
            if (reduce_ && sleep_contains(sleep, p)) {
                return;  // Redundant continuation (sleep-set equivalence).
            }
            const Op op = sys.process(p).pending();
            try {
                sys.step(p);
            } catch (const InvariantViolation& e) {
                emit_partial(one_violation(e.what()));
                return;
            }
            choices.push_back(0);
            path.push_back({p, op});
            if (reduce_) {
                sleep = sleep_after_step(sleep, p, op);
            }
        }
        if (sys.runnable().empty()) {
            emit_partial(one_schedule(run_tail(sys, opt_.finish_budget)));
            return;
        }
        const std::vector<ProcId> enabled = sys.runnable();
        std::vector<Op> pending;
        pending.reserve(enabled.size());
        for (const ProcId p : enabled) {
            pending.push_back(sys.process(p).pending());
        }
        // Interior frontier node: children replay from scratch anyway, so
        // the live state can be consumed by the counting completion.
        const TailOutcome t = run_tail(sys, opt_.finish_budget);
        emit_partial(one_schedule(t));
        if (t.violated) {
            return;  // Do not descend below a violating prefix.
        }
        for (std::size_t c = 0; c < enabled.size(); ++c) {
            const ProcId pid = enabled[c];
            const Op& op = pending[c];
            if (reduce_ && sleep_contains(sleep, pid)) {
                continue;
            }
            std::vector<std::size_t> cc = choices;
            cc.push_back(c);
            std::vector<StepRec> cp = path;
            cp.push_back({pid, op});
            frontier(std::move(cc), std::move(cp),
                     reduce_ ? sleep_after_step(sleep, pid, op) : SleepSet{},
                     levels - 1, depth - 1);
            if (reduce_) {
                sleep.push_back({pid, op});
            }
        }
    }

    const ScenarioFactory& factory_;
    const ExploreOptions& opt_;
    const bool reduce_;
    std::vector<Event> events_;
    std::vector<WorkItem> items_;
};

}  // namespace

ExploreResult explore(const ScenarioFactory& factory,
                      const ExploreOptions& options) {
    ExploreOptions opt = options;
    if (opt.branch_depth < 0) {
        opt.branch_depth = 0;
    }
    bool reduce = opt.reduce;
    if (reduce) {
        // Scenarios whose observers depend on the global step order (e.g.
        // Stall fault deadlines) veto the reduction; verdicts stay exact.
        const Scenario probe = factory();
        reduce = probe.reduction_safe;
    }
    FrontierBuilder fb(factory, opt, reduce);
    fb.run();
    std::vector<ExploreResult> item_results(fb.items().size());
    harness::parallel_for(
        fb.items().size(), opt.jobs == 0 ? 1 : opt.jobs, [&](std::size_t i) {
            SubtreeExplorer ex(factory, opt, reduce);
            item_results[i] = ex.run(fb.items()[i]);
        });
    ExploreResult total;
    for (const Event& ev : fb.events()) {
        merge_into(total, ev.item >= 0
                              ? item_results[static_cast<std::size_t>(ev.item)]
                              : ev.partial);
    }
    return total;
}

ExploreResult explore_dfs(const ScenarioFactory& factory, int branch_depth,
                          std::uint64_t finish_budget) {
    ExploreOptions opt;
    opt.branch_depth = branch_depth;
    opt.finish_budget = finish_budget;
    opt.reduce = false;
    opt.jobs = 1;
    return explore(factory, opt);
}

ExploreResult explore_random(const ScenarioFactory& factory,
                             std::uint64_t num_schedules, std::uint64_t seed,
                             std::uint64_t budget) {
    ExploreResult result;
    for (std::uint64_t i = 0; i < num_schedules; ++i) {
        Scenario sc = factory();
        System& sys = *sc.sys;
        RandomScheduler sched(explore_run_seed(seed, i));
        try {
            const RunResult run_result = run(sys, sched, budget);
            sys.check_failures();
            if (!run_result.all_finished) {
                ++result.incomplete_runs;
            }
        } catch (const InvariantViolation& e) {
            ++result.violations;
            if (result.first_violation.empty()) {
                result.first_violation = e.what();
            }
        }
        ++result.schedules_explored;
    }
    return result;
}

}  // namespace rwr::sim
