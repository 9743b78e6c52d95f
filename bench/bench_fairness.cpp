// E8 -- fairness (Theorem 18 + Discussion Section 6).
//
// (a) Long fair-random runs: per-role min/max completed passages within a
//     fixed step budget. A_f must show zero reader starvation (Lemma 16);
//     writers also progress under probabilistically fair scheduling.
// (b) The adversarial reader flood: overlapping readers keep C[i] > 0
//     forever, so the A_f writer starves in its PREENTRY loop (the paper:
//     "Writers, however, may starve..."). The FAA lock (writer preference)
//     pushes its writer through the same flood; the reader-preference
//     baseline starves its writer too, by design.
//
// Exit-code checks (exit 1, named on stderr): in (a) every lock's reader
// and writer minimum is above 0; in (b) the A_f, reader-pref and
// centralized writers complete 0 passages while their readers complete
// 600, and the FAA and phase-fair writers complete more than 0.
#include <iostream>
#include <memory>
#include <string>

#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/locks.hpp"
#include "harness/table.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct FairnessRow {
    std::uint64_t reader_min = 0, reader_max = 0;
    std::uint64_t writer_min = 0, writer_max = 0;
};

sim::SimTask<void> endless(sim::SimRWLock& lock, sim::Process& p) {
    sim::DriveConfig dc;
    dc.passages = 1'000'000'000;  // Budget-bounded, never completes.
    dc.cs_steps = 1;
    dc.remainder_steps = 1;
    co_await sim::drive(lock, p, dc);
}

FairnessRow fair_run(LockKind kind, std::uint32_t n, std::uint32_t m,
                     std::uint64_t budget, std::uint64_t seed) {
    sim::System sys(Protocol::WriteBack);
    auto lock = make_sim_lock(kind, sys.memory(), n, m, /*f=*/2);
    for (std::uint32_t r = 0; r < n; ++r) {
        sim::Process& p = sys.add_process(sim::Role::Reader);
        p.set_task(endless(*lock, p));
    }
    for (std::uint32_t w = 0; w < m; ++w) {
        sim::Process& p = sys.add_process(sim::Role::Writer);
        p.set_task(endless(*lock, p));
    }
    sim::RandomScheduler sched(seed);
    sim::run(sys, sched, budget);

    FairnessRow row;
    row.reader_min = ~0ull;
    row.writer_min = ~0ull;
    for (ProcId id = 0; id < sys.num_processes(); ++id) {
        const auto& p = sys.process(id);
        const auto done = p.completed_passages();
        if (p.is_reader()) {
            row.reader_min = std::min(row.reader_min, done);
            row.reader_max = std::max(row.reader_max, done);
        } else {
            row.writer_min = std::min(row.writer_min, done);
            row.writer_max = std::max(row.writer_max, done);
        }
    }
    return row;
}

/// Deterministic reader flood: two readers alternate so the instantaneous
/// reader count never hits zero; the writer gets steps all along. Returns
/// writer passages completed (0 = starved) and reader passages.
struct FloodResult {
    std::uint64_t writer_passages = 0;
    std::uint64_t reader_passages = 0;
};

FloodResult flood(LockKind kind) {
    sim::System sys(Protocol::WriteBack);
    auto lock = make_sim_lock(kind, sys.memory(), /*n=*/2, /*m=*/1, 1);
    sim::Process& r0 = sys.add_process(sim::Role::Reader);
    sim::Process& r1 = sys.add_process(sim::Role::Reader);
    sim::Process& w = sys.add_process(sim::Role::Writer);
    r0.set_task(endless(*lock, r0));
    r1.set_task(endless(*lock, r1));
    w.set_task(endless(*lock, w));
    sys.start_all();

    auto run_until = [&](sim::Process& p, auto pred) {
        int guard = 0;
        while (!pred(p) && p.runnable() && guard++ < 100'000) {
            sys.step(p.id());
        }
        return pred(p);
    };
    auto in_cs = [](const sim::Process& p) { return p.in_cs(); };
    auto in_remainder = [](const sim::Process& p) {
        return p.section() == Section::Remainder;
    };

    bool flood_sustained = run_until(r0, in_cs);
    if (flood_sustained) {
        for (int round = 0; round < 300; ++round) {
            if (!run_until(r1, in_cs) || !run_until(r0, in_remainder)) {
                flood_sustained = false;
                break;
            }
            for (int i = 0; i < 10; ++i) sys.step(w.id());
            if (!run_until(r0, in_cs) || !run_until(r1, in_remainder)) {
                flood_sustained = false;
                break;
            }
            for (int i = 0; i < 10; ++i) sys.step(w.id());
        }
    }
    if (!flood_sustained) {
        // The lock itself broke the flood (writer preference blocked the
        // readers). Let everything run fairly so the writer's progress is
        // observable.
        sim::RoundRobinScheduler rr;
        sim::run(sys, rr, 100'000);
    }
    return {w.completed_passages(),
            r0.completed_passages() + r1.completed_passages()};
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("fairness", argc, argv, {});
    std::cout << "bench_fairness: starvation behaviour (E8)\n";

    std::cout << "\n=== E8a: fair random scheduling, 2M steps, n=8, m=2 "
                 "===\n(per-role min/max completed passages; min > 0 means "
                 "no starvation observed)\n";
    Table t({"lock", "rd min", "rd max", "wr min", "wr max"});
    for (const LockKind kind : all_lock_kinds()) {
        const auto row = fair_run(kind, 8, 2, 2'000'000, 42);
        t.row({to_string(kind), fmt(row.reader_min), fmt(row.reader_max),
               fmt(row.writer_min), fmt(row.writer_max)});
        kit.check(row.reader_min > 0 && row.writer_min > 0,
                  "E8a: " + to_string(kind) +
                      " starved a process (reader min " +
                      std::to_string(row.reader_min) + ", writer min " +
                      std::to_string(row.writer_min) + ")");
    }
    t.print();

    std::cout << "\n=== E8b: adversarial reader flood (readers overlap so "
                 "the CS never empties; writer stepped throughout) ===\n";
    Table t2({"lock", "writer passages", "reader passages", "verdict"});
    for (const LockKind kind :
         {LockKind::Af, LockKind::Faa, LockKind::PhaseFair,
          LockKind::ReaderPref, LockKind::Centralized}) {
        const auto res = flood(kind);
        std::string verdict;
        if (res.writer_passages == 0) {
            verdict = "writer starved";
        } else {
            verdict = "writer progressed (flood broken)";
        }
        t2.row({to_string(kind), fmt(res.writer_passages),
                fmt(res.reader_passages), verdict});
        const std::string at = "E8b: " + to_string(kind) + " writer " +
                               std::to_string(res.writer_passages) +
                               " passages, readers " +
                               std::to_string(res.reader_passages);
        if (kind == LockKind::Faa || kind == LockKind::PhaseFair) {
            kit.check(res.writer_passages > 0,
                      at + " (its writer must break the flood)");
        } else {
            kit.check(res.writer_passages == 0 && res.reader_passages == 600,
                      at + " (the flood must starve its writer for 600 "
                           "reader passages)");
        }
    }
    t2.print();
    std::cout << "\n(A_f: writer starvation under floods is the documented "
                 "cost of reader starvation freedom -- paper Section 6; "
                 "finding a fairer family with the same tradeoff is the "
                 "paper's open problem.)\n";
    return kit.finish();
}
