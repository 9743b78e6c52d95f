// E11 -- the CC/DSM separation (paper Discussion, Danek-Hadzilacos [9]).
//
// "A lower bound of Danek and Hadzilacos implies an Ω(n) RMRs lower bound
// on Distributed Shared Memory (DSM) reader-writer locks. This linear
// bound does not apply to the CC model, however."
//
// We run the same A_f workloads under cache-coherent write-back and under
// DSM accounting (counter leaves homed at their owners, everything else
// remote). In CC, reader RMRs are Θ(log(n/f)); in DSM, busy-wait re-reads
// and every access to group-shared variables (counter internal nodes,
// RSIG, WSIG) are remote, so reader costs blow past logarithmic -- the
// algorithm is a CC algorithm, exactly as the theory says it must be.
//
// Bonus observation: Lemma 1 ("every expanding step incurs an RMR") is
// itself CC-specific. Under DSM a variable's *owner* reads newly-written
// values locally, so expanding-but-free steps occur; the table counts them.
//
// Flags:
//   --json <path>  emit the E11a grid and E11b waiting costs as
//                  "rwr-bench-v1" rows (sim-exact, deterministic), so the
//                  DSM numbers reach bench_compare gating like every other
//                  experiment. E11b rows disambiguate the hold duration
//                  via the "workload" key field ("holdN").
//
// Regenerating the checked-in baseline after an intended change:
//   ./build/bench/bench_dsm --json BENCH_dsm.json
#include <iostream>
#include <memory>
#include <string>

#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "knowledge/awareness.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

/// E11a cell: n readers + 1 writer, 2 passages each, round-robin.
ExperimentResult measure(Protocol proto, std::uint32_t n, std::uint32_t f) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.m = 1;
    cfg.f = f;
    cfg.passages = 2;
    cfg.sched = SchedKind::RoundRobin;
    cfg.check_mutual_exclusion = false;
    return run_experiment(cfg);
}

void e11a_row(json::Value* results, Protocol proto, std::uint32_t n,
              std::uint32_t f, const ExperimentResult& res) {
    if (results == nullptr) {
        return;
    }
    auto row = bench::key_row({.lock = "e11-af", .protocol = to_string(proto),
                               .n = n, .m = 1, .f = f, .threads = n + 1});
    row.set("sim_rmr", bench::sim_rmr(res.readers.mean_passage_rmrs,
                                      res.writers.mean_passage_rmrs));
    row.set("proc_rmr", bench::proc_rmr_to_json(res.proc_rmrs, n));
    results->push_back(std::move(row));
}

}  // namespace

/// Reader RMRs accrued while *waiting* for a writer that occupies the CS
/// for `cs_hold` steps: CC write-back charges O(1) for the whole wait (the
/// spin variable is cached until the writer's single release write); DSM
/// charges every re-read.
std::pair<std::uint64_t, std::uint64_t> waiting_cost(Protocol proto,
                                                     std::uint64_t cs_hold) {
    sim::System sys(proto);
    auto lock = make_sim_lock(LockKind::Af, sys.memory(), 1, 1, 1);
    sim::Process& r = sys.add_process(sim::Role::Reader);
    sim::Process& w = sys.add_process(sim::Role::Writer);
    sim::DriveConfig rc;
    rc.passages = 1;
    r.set_task(sim::drive(*lock, r, rc));
    sim::DriveConfig wc;
    wc.passages = 1;
    wc.cs_steps = cs_hold;
    w.set_task(sim::drive(*lock, w, wc));
    sys.start_all();

    // Writer through its entry and into the CS...
    sim::run_solo(sys, w.id(), 100'000,
                  [](const sim::Process& p) { return p.in_cs(); });
    // ...now the reader arrives, observes WAIT, and spins. Interleave one
    // reader step per writer (CS) step so the spin lasts cs_hold steps.
    while (w.in_cs() && w.runnable()) {
        sys.step(r.id());
        sys.step(w.id());
    }
    // Let both finish.
    sim::RoundRobinScheduler rr;
    sim::run(sys, rr, 100'000);
    return {r.stats().rmrs_in(Section::Entry), cs_hold};
}

int main(int argc, char** argv) {
    bench::Kit kit("dsm", argc, argv, {"--json"});
    json::Value* results = kit.results();

    std::cout << "bench_dsm: A_f under cache-coherent write-back vs DSM "
                 "accounting (E11)\n";

    std::cout << "\n--- E11a: per-passage RMRs, light contention (constant-"
                 "factor inflation) ---\n";
    Table t({"n", "f", "rd CC", "rd DSM", "DSM/CC", "wr CC", "wr DSM"});
    for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u}) {
        std::uint32_t f = 1;
        while (f * f < n) {
            ++f;
        }
        const auto cc = measure(Protocol::WriteBack, n, f);
        const auto dsm = measure(Protocol::Dsm, n, f);
        e11a_row(results, Protocol::WriteBack, n, f, cc);
        e11a_row(results, Protocol::Dsm, n, f, dsm);
        const double cc_rd = cc.readers.mean_passage_rmrs;
        const double dsm_rd = dsm.readers.mean_passage_rmrs;
        t.row({fmt(n), fmt(f), fmt(cc_rd), fmt(dsm_rd),
               fmt(dsm_rd / std::max(1.0, cc_rd), 1),
               fmt(cc.writers.mean_passage_rmrs),
               fmt(dsm.writers.mean_passage_rmrs)});
    }
    t.print();

    std::cout << "\n--- E11b: the real separation -- RMRs a reader pays "
                 "while WAITING for a writer holding the CS ---\n";
    Table t2({"writer CS steps", "reader entry RMRs (CC)",
              "reader entry RMRs (DSM)"});
    for (const std::uint64_t hold : {4u, 16u, 64u, 256u, 1024u}) {
        const auto cc = waiting_cost(Protocol::WriteBack, hold);
        const auto dsm = waiting_cost(Protocol::Dsm, hold);
        if (results != nullptr) {
            for (const auto& [proto, cost] :
                 {std::pair{Protocol::WriteBack, cc.first},
                  std::pair{Protocol::Dsm, dsm.first}}) {
                // The hold duration is part of the bench_diff row key.
                auto row = bench::key_row(
                    {.lock = "e11b-wait", .protocol = to_string(proto),
                     .n = 1, .m = 1, .f = 1, .threads = 2,
                     .workload = "hold" + std::to_string(hold)});
                // Entry RMRs of the single waiting reader for the whole
                // (one-passage) wait -- the E11b separation metric.
                row.set("sim_rmr", bench::sim_rmr(cost, 0));
                results->push_back(std::move(row));
            }
        }
        t2.row({fmt(hold), fmt(cc.first), fmt(dsm.first)});
    }
    t2.print();
    std::cout << "(CC: the line-36 spin is LOCAL -- O(1) RMRs no matter how "
                 "long the writer holds the CS, the heart of Lemma 17. "
                 "DSM: every re-read of RSIG is remote, so waiting cost "
                 "grows linearly -- A_f is a CC algorithm, and the "
                 "Danek-Hadzilacos Ω(n) DSM bound does not contradict it.)\n";

    std::cout << "\n--- E11c: Lemma 1 is CC-specific (micro-demo) ---\n";
    {
        sim::System sys(Protocol::Dsm);
        const VarId v = sys.memory().allocate("v", 0, /*owner=*/0);
        sim::Process& owner = sys.add_process(sim::Role::Reader);
        sim::Process& remote = sys.add_process(sim::Role::Reader);
        struct Progs {
            static sim::SimTask<void> write_once(sim::Process& p, VarId var) {
                co_await p.write(var, 42);
            }
            static sim::SimTask<void> read_once(sim::Process& p, VarId var) {
                co_await p.read(var);
            }
        };
        remote.set_task(Progs::write_once(remote, v));
        owner.set_task(Progs::read_once(owner, v));
        knowledge::AwarenessTracker tr(2, sys.memory().num_variables());
        sys.add_observer(&tr);
        sys.start_all();
        sys.step(remote.id());  // Remote write: RMR, F(v) = {remote}.
        sys.step(owner.id());   // Owner read: EXPANDING but local (no RMR).
        std::cout << "owner's read of its own variable after a remote "
                     "write: expanding steps="
                  << tr.expanding_steps(owner.id())
                  << ", RMR-free expansions=" << tr.lemma1_violations()
                  << "  (in CC this is impossible -- Lemma 1)\n";
    }
    return kit.finish();
}
