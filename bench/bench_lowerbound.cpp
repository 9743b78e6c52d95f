// E2 -- Theorem 5 / Figure 1: the lower-bound adversary in action.
//
// Runs the E1/E2/E3 construction against A_f (all f choices) and the
// baselines, reporting:
//   r            -- expanding-step iterations (paper: r = Ω(log3(n/f)))
//   log3(n/f)    -- the bound
//   survivor     -- max expanding steps a single reader executed in exit
//   exit max     -- max reader exit-section RMRs (>= survivor by Lemma 1)
//   wr entry     -- writer entry RMRs in E3 (the "f(n)" of the tradeoff)
//   growth       -- max per-batch knowledge growth (Lemma 2: <= 3 for
//                   read/write/CAS; FAA exceeds it and escapes the bound)
//   L1/L4        -- Lemma 1 violations (must be 0) / Lemma 4 holds.
//
// Each adversary construction is independent (own System + Memory), so all
// cells run on the parallel sweep runner (--jobs N).
//
// Exit-code checks (exit 1 on any failure, named on stderr):
//   * every A_f cell completes the construction;
//   * on every completed cell: 0 Lemma 1 violations, Lemma 4 holds, and
//     exit max >= survivor;
//   * on every completed cell of a read/write/CAS lock (all but faa):
//     r >= log3(n/f), and growth <= 3 (Lemma 2);
//   * faa still escapes the bound (growth > 3);
//   * E2c: M(E'_j) <= 3^j at every iteration j.
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/af_params.hpp"
#include "harness/bench_kit.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;
using adversary::AdversaryConfig;
using adversary::AdversaryResult;
using adversary::run_adversary;

struct Cell {
    std::string label;
    AdversaryConfig cfg;
    AdversaryResult res;
};

void add_cell(std::vector<Cell>* cells, const std::string& label,
              LockKind kind, std::uint32_t n, std::uint32_t f,
              Protocol proto) {
    AdversaryConfig cfg;
    cfg.lock = kind;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.f = f;
    cells->push_back({label, cfg, {}});
}

void print_row(Table& t, const Cell& c) {
    const AdversaryResult& res = c.res;
    if (!res.completed) {
        t.row({c.label, fmt(c.cfg.n), fmt(c.cfg.f), "-",
               fmt(res.log3_bound, 1), "-", "-", "-", "-",
               res.note.substr(0, 28)});
        return;
    }
    t.row({c.label, fmt(c.cfg.n), fmt(c.cfg.f), fmt(res.r),
           fmt(res.log3_bound, 1), fmt(res.survivor_expanding_steps),
           fmt(res.max_reader_exit_rmrs), fmt(res.writer_entry_rmrs),
           fmt(res.max_growth_factor, 2),
           std::string(res.lemma1_violations == 0 ? "0" : "VIOLATED") + "/" +
               (res.lemma4_holds ? "ok" : "VIOLATED")});
}

void check_cell(bench::Kit& kit, const Cell& c) {
    const AdversaryResult& res = c.res;
    const std::string at = c.label + " " + to_string(c.cfg.protocol) +
                           " n=" + std::to_string(c.cfg.n) +
                           " f=" + std::to_string(c.cfg.f);
    if (c.cfg.lock == LockKind::Af) {
        kit.check(res.completed, at + ": construction did not complete");
    }
    if (!res.completed) {
        return;
    }
    kit.check(res.lemma1_violations == 0, at + ": Lemma 1 violated");
    kit.check(res.lemma4_holds, at + ": Lemma 4 violated");
    kit.check(res.max_reader_exit_rmrs >= res.survivor_expanding_steps,
              at + ": exit max below survivor");
    if (c.cfg.lock == LockKind::Faa) {
        kit.check(res.max_growth_factor > 3,
                  at + ": faa no longer escapes the bound (growth " +
                      fmt(res.max_growth_factor, 2) + " <= 3)");
        return;
    }
    kit.check(static_cast<double>(res.r) >= res.log3_bound,
              at + ": r = " + std::to_string(res.r) + " below log3(n/f) = " +
                  fmt(res.log3_bound, 1));
    kit.check(res.max_growth_factor <= 3,
              at + ": growth " + fmt(res.max_growth_factor, 2) +
                  " exceeds 3 (Lemma 2)");
}

std::vector<std::string> columns() {
    return {"lock", "n", "f", "r", "log3(n/f)", "survivor", "exit max",
            "wr entry", "growth", "L1/L4"};
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("lowerbound", argc, argv, {"--jobs"});
    std::cout << "bench_lowerbound: the Theorem 5 adversarial construction "
                 "(E = E1 E2 E3) against every lock (jobs="
              << kit.jobs() << ")\n";

    // Build every cell up front; run them all on one pool.
    std::vector<Cell> e2;  // Per-protocol A_f grid.
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {16u, 64u, 256u, 1024u, 4096u}) {
            for (const auto choice :
                 {core::FChoice::One, core::FChoice::Log, core::FChoice::Sqrt,
                  core::FChoice::Linear}) {
                const std::uint32_t f = core::f_of(choice, n);
                add_cell(&e2, "A_f(" + to_string(choice) + ")", LockKind::Af,
                         n, f, proto);
            }
        }
    }
    std::vector<Cell> e2b;  // Baselines (write-back).
    for (const std::uint32_t n : {16u, 64u, 256u, 1024u}) {
        add_cell(&e2b, "centralized", LockKind::Centralized, n, 1,
                 Protocol::WriteBack);
    }
    for (const std::uint32_t n : {16u, 64u, 256u}) {
        add_cell(&e2b, "reader-pref", LockKind::ReaderPref, n, 1,
                 Protocol::WriteBack);
    }
    for (const std::uint32_t n : {16u, 256u, 4096u}) {
        add_cell(&e2b, "faa", LockKind::Faa, n, 1, Protocol::WriteBack);
    }
    add_cell(&e2b, "big-mutex", LockKind::BigMutex, 16, 1,
             Protocol::WriteBack);
    std::vector<Cell> e2c;  // Knowledge growth trace.
    add_cell(&e2c, "A_f", LockKind::Af, 256, 1, Protocol::WriteBack);

    std::vector<Cell*> all;
    for (auto* group : {&e2, &e2b, &e2c}) {
        for (auto& c : *group) {
            all.push_back(&c);
        }
    }
    parallel_for(all.size(), kit.jobs(), [&](std::size_t i) {
        all[i]->res = run_adversary(all[i]->cfg);
    });
    for (const Cell* c : all) {
        check_cell(kit, *c);
    }

    std::size_t i = 0;
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E2: A_f under the adversary, protocol = "
                  << to_string(proto) << " ===\n";
        Table t(columns());
        for (; i < e2.size() && e2[i].cfg.protocol == proto; ++i) {
            print_row(t, e2[i]);
        }
        t.print();
    }

    std::cout << "\n=== E2b: baselines under the adversary (write-back) ===\n"
              << "(centralized: r = Θ(n); reader-pref: r = Θ(log n); FAA "
                 "escapes -- growth > 3; big-mutex: E1 infeasible)\n";
    Table t(columns());
    for (const Cell& c : e2b) {
        print_row(t, c);
    }
    t.print();

    std::cout << "\n=== E2c: knowledge growth trace (A_f, n=256, f=1) ===\n"
              << "(the 3^j invariant of Theorem 5's construction)\n";
    const AdversaryResult& res = e2c.front().res;
    Table g({"iteration j", "batch", "readers left", "M(E'_j)", "3^j cap",
             "growth"});
    double cap = 1;
    for (std::size_t j = 0; j < res.iterations.size(); ++j) {
        cap *= 3;
        const auto& it = res.iterations[j];
        g.row({fmt(j + 1), fmt(it.batch_size), fmt(it.readers_left),
               fmt(it.max_knowledge), fmt(cap, 0),
               fmt(it.growth_factor, 2)});
        kit.check(static_cast<double>(it.max_knowledge) <= cap,
                  "E2c iteration " + std::to_string(j + 1) + ": M(E'_j) = " +
                      std::to_string(it.max_knowledge) + " exceeds 3^j");
    }
    g.print();
    return kit.finish();
}
