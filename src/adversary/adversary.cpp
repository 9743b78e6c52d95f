#include "adversary/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::adversary {

namespace {

/// Step budget of one solo run.
constexpr std::uint64_t kSoloBudget = 2'000'000;

struct World {
    std::unique_ptr<sim::System> sys;
    std::unique_ptr<sim::SimRWLock> lock;
    std::unique_ptr<knowledge::AwarenessTracker> tracker;
    std::vector<std::vector<sim::PassageRecord>> records;
    ProcId writer_id = 0;
};

World build(const AdversaryConfig& cfg) {
    World w;
    w.sys = std::make_unique<sim::System>(cfg.protocol);
    w.lock = harness::make_sim_lock(cfg.lock, w.sys->memory(), cfg.n,
                                    /*m=*/1, cfg.f);
    w.records.resize(cfg.n + 1);
    for (std::uint32_t r = 0; r < cfg.n; ++r) {
        sim::Process& p = w.sys->add_process(sim::Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 1;
        dc.records = &w.records[p.id()];
        p.set_task(sim::drive(*w.lock, p, dc));
    }
    sim::Process& writer = w.sys->add_process(sim::Role::Writer);
    w.writer_id = writer.id();
    sim::DriveConfig dc;
    dc.passages = 1;
    dc.records = &w.records[writer.id()];
    writer.set_task(sim::drive(*w.lock, writer, dc));

    w.tracker = std::make_unique<knowledge::AwarenessTracker>(
        cfg.n + 1, w.sys->memory().num_variables());
    w.sys->add_observer(w.tracker.get());
    return w;
}

enum class FixpointOutcome {
    AllPoisedOrDone,     ///< Paper's σ_j: everyone poised at expansion / done.
    StableWithSpinners,  ///< Some readers wait (spin non-expandingly) on a
                         ///< frozen poised reader: possible only for locks
                         ///< without Bounded Exit; release the poised batch.
    BudgetExhausted,     ///< Livelock.
};

/// Advances every unfinished reader until it is either done or its pending
/// step would be expanding, repeated to fixpoint (a step by one reader can
/// flip another's pending step between expanding/non-expanding by rewriting
/// familiarity sets). Advancement is chunked and interleaved: a reader
/// whose exit section *waits* for another reader (a lock without Bounded
/// Exit, e.g. the Courtois-style baseline whose exit takes a mutex) spins
/// non-expandingly until the process it waits for writes. A round in which
/// no reader changed status and no write-type step executed can never make
/// further progress by itself, so the fixpoint stops there.
FixpointOutcome advance_to_expanding_fixpoint(World& w, std::uint32_t n,
                                              std::uint64_t budget) {
    constexpr std::uint64_t kChunk = 32;  // Steps per reader per visit.
    std::uint64_t steps = 0;
    for (;;) {
        bool status_change = false;  // Someone newly poised or finished.
        bool wrote = false;          // Any write/CAS step executed.
        bool spinners = false;       // Chunk-exhausted non-poised readers.
        for (ProcId id = 0; id < n; ++id) {
            sim::Process& p = w.sys->process(id);
            if (!p.runnable()) {
                continue;  // Finished.
            }
            if (w.tracker->would_expand(id, p.pending())) {
                continue;  // Already poised.
            }
            std::uint64_t taken = 0;
            while (p.runnable() && taken < kChunk &&
                   !w.tracker->would_expand(id, p.pending())) {
                if (p.pending().is_writing()) {
                    wrote = true;
                }
                w.sys->step(id);
                ++taken;
                if (++steps > budget) {
                    return FixpointOutcome::BudgetExhausted;
                }
            }
            if (!p.runnable() ||
                w.tracker->would_expand(id, p.pending())) {
                status_change = true;  // Now finished or poised.
            } else {
                spinners = true;  // Exhausted its chunk while waiting.
            }
        }
        if (!spinners) {
            return FixpointOutcome::AllPoisedOrDone;
        }
        if (!status_change && !wrote) {
            return FixpointOutcome::StableWithSpinners;
        }
    }
}

}  // namespace

AdversaryResult run_adversary(const AdversaryConfig& cfg) {
    AdversaryResult res;
    res.log3_bound =
        std::log(static_cast<double>(cfg.n) /
                 static_cast<double>(std::max<std::uint32_t>(1, cfg.f))) /
        std::log(3.0);
    World w = build(cfg);
    sim::System& sys = *w.sys;
    sys.start_all();

    // ---- E1: every reader runs solo into the CS. ------------------------
    for (ProcId id = 0; id < cfg.n; ++id) {
        sim::run_solo(sys, id, kSoloBudget,
                      [](const sim::Process& p) { return p.in_cs(); });
        if (!sys.process(id).in_cs()) {
            res.note = "E1 infeasible: reader " + std::to_string(id) +
                       " could not enter the CS solo (Concurrent Entering "
                       "violated by this lock)";
            return res;
        }
    }
    res.e1_feasible = true;

    // ---- C1: re-base knowledge; E2 begins. -------------------------------
    w.tracker->reset_fragment();
    const std::uint64_t iter_cap =
        cfg.iteration_cap != 0 ? cfg.iteration_cap : (cfg.n + 64);

    std::size_t prev_knowledge = 1;  // max(|AW|, |F|) = 1 at the C1 re-base.
    for (std::uint64_t j = 0; j <= iter_cap; ++j) {
        // σ_j: run until every unfinished reader is poised at an expanding
        // step (Bounded Exit guarantees this terminates; for locks whose
        // exit waits, the fixpoint stops once the poised set is stable).
        const FixpointOutcome fp = advance_to_expanding_fixpoint(
            w, cfg.n, kSoloBudget * (cfg.n + 1));
        if (fp == FixpointOutcome::BudgetExhausted) {
            res.note = "E2 fixpoint budget exhausted (livelock)";
            return res;
        }

        // Collect the poised readers.
        std::vector<ProcId> poised;
        std::uint32_t unfinished = 0;
        for (ProcId id = 0; id < cfg.n; ++id) {
            const sim::Process& p = sys.process(id);
            if (!p.finished()) {
                ++unfinished;
                if (p.runnable()) {
                    poised.push_back(id);
                }
            }
        }
        if (unfinished == 0) {
            break;  // All readers exited: E2 complete, r == j.
        }
        if (poised.empty()) {
            res.note = "E2 stuck: unfinished readers but none poised";
            return res;
        }
        if (j == iter_cap) {
            res.note = "E2 iteration cap reached";
            return res;
        }

        // σ'_{j+1}: release the expanding batch in Lemma 2's phase order --
        // plain reads first, then read-modify-writes grouped by variable.
        std::stable_sort(poised.begin(), poised.end(),
                         [&sys](ProcId a, ProcId b) {
                             const Op& oa = sys.process(a).pending();
                             const Op& ob = sys.process(b).pending();
                             const int ka = oa.code == OpCode::Read ? 0 : 1;
                             const int kb = ob.code == OpCode::Read ? 0 : 1;
                             if (ka != kb) {
                                 return ka < kb;
                             }
                             if (ka == 1) {  // Group CAS/FAA by variable.
                                 return oa.var.index < ob.var.index;
                             }
                             return false;
                         });
        for (const ProcId id : poised) {
            sys.step(id);
        }

        IterationStats it;
        it.batch_size = static_cast<std::uint32_t>(poised.size());
        it.max_knowledge = w.tracker->max_knowledge();
        it.growth_factor = static_cast<double>(it.max_knowledge) /
                           static_cast<double>(std::max<std::size_t>(
                               1, prev_knowledge));
        prev_knowledge = std::max<std::size_t>(1, it.max_knowledge);
        std::uint32_t left = 0;
        for (ProcId id = 0; id < cfg.n; ++id) {
            if (!sys.process(id).finished()) {
                ++left;
            }
        }
        it.readers_left = left;
        res.iterations.push_back(it);
        res.max_growth_factor =
            std::max(res.max_growth_factor, it.growth_factor);
        ++res.r;
    }

    // Reader-exit statistics over E2. (Each reader ran exactly one passage;
    // the exit-section columns of its record accrued entirely within E2.)
    double exit_sum = 0;
    for (ProcId id = 0; id < cfg.n; ++id) {
        const auto& recs = w.records[id];
        if (recs.empty()) {
            res.note = "internal: reader finished without a passage record";
            return res;
        }
        const std::uint64_t exit_rmrs = recs[0].delta.rmrs_in(Section::Exit);
        res.max_reader_exit_rmrs =
            std::max(res.max_reader_exit_rmrs, exit_rmrs);
        exit_sum += static_cast<double>(exit_rmrs);
        res.survivor_expanding_steps = std::max(
            res.survivor_expanding_steps, w.tracker->expanding_steps(id));
    }
    res.mean_reader_exit_rmrs = exit_sum / cfg.n;

    // ---- E3: the writer runs solo into the CS. ---------------------------
    const sim::Process& writer = sys.process(w.writer_id);
    const SectionStats before = writer.stats();
    sim::run_solo(sys, w.writer_id, kSoloBudget,
                  [](const sim::Process& p) { return p.in_cs(); });
    if (!writer.in_cs()) {
        res.note = "E3 failed: writer could not enter the CS solo from the "
                   "quiescent configuration (Deadlock Freedom violated?)";
        return res;
    }
    const SectionStats delta = writer.stats() - before;
    res.writer_entry_rmrs = delta.rmrs_in(Section::Entry);
    res.writer_entry_steps = delta.steps_in(Section::Entry);
    res.writer_expanding_steps = w.tracker->expanding_steps(w.writer_id);

    // Lemma 4: W1 must be aware of every reader's participation in E2.
    const auto& aw = w.tracker->awareness(w.writer_id);
    res.writer_awareness = aw.count();
    res.lemma4_holds = true;
    for (ProcId id = 0; id < cfg.n; ++id) {
        if (!aw.test(id)) {
            res.lemma4_holds = false;
            break;
        }
    }

    res.lemma1_violations = w.tracker->lemma1_violations();
    res.completed = true;
    return res;
}

}  // namespace rwr::adversary
