// E2/E3 -- Theorem 5 / Figure 1 and Corollaries 6-7: the lower-bound
// adversary against every lock, and the tradeoff frontier it draws.
//
// E2 reports, per construction, r (paper: r = Ω(log3(n/f))), the survivor's
// expanding steps, the worst reader exit and the writer entry RMRs, the max
// per-batch knowledge growth (Lemma 2: <= 3 for read/write/CAS; FAA
// escapes) and Lemmas 1 and 4. E3 places each lock's (writer entry, reader
// exit) point against the curve exit >= log3(n / entry); E3b runs Corollary
// 7's contended passages. A construction two tables show runs once, on the
// parallel sweep runner (--jobs N).
//
// Each claim is a named check that fails the run (exit 1): the lemmas and
// r >= log3(n/f) on every cell, Corollary 6's line for every read/write/CAS
// lock (faa stays below it), E2c's 3^j cap, A_f's frontier (as f grows, its
// writer entry rises strictly and its reader exit never rises) and E3b's
// floor(log2(max(n, m))). --json PATH writes every number as an exact row
// ("theorem5", "e2c/j=<j>", "e3b") that CI diffs against
// BENCH_lowerbound.json.
#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
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

constexpr std::uint32_t kE3Ns[] = {64, 256, 1024};
constexpr std::uint32_t kE3Fs[] = {1, 4, 16, 64};

/// A table row: its label and the construction it shows.
using Shown = std::pair<std::string, AdversaryConfig>;

AdversaryConfig config(LockKind kind, std::uint32_t n, std::uint32_t f,
                       Protocol proto = Protocol::WriteBack) {
    return {.lock = kind, .protocol = proto, .n = n, .f = f};
}

bool same(const AdversaryConfig& a, const AdversaryConfig& b) {
    return std::tie(a.lock, a.protocol, a.n, a.f, a.iteration_cap) ==
           std::tie(b.lock, b.protocol, b.n, b.f, b.iteration_cap);
}

/// Corollary 6's curve at a cell's point: log3(n / max(1, writer entry)).
double curve(std::uint32_t n, const AdversaryResult& res) {
    const double entry = std::max<double>(1.0, res.writer_entry_rmrs);
    return std::log(n / entry) / std::log(3.0);
}

/// On or above the curve, less the one RMR the asymptotic bound leaves.
bool above_curve(std::uint32_t n, const AdversaryResult& res) {
    return static_cast<double>(res.max_reader_exit_rmrs) >= curve(n, res) - 1.0;
}

void print_row(Table& t, const Shown& s, const AdversaryResult& res) {
    const auto& [label, cfg] = s;
    if (!res.completed) {
        t.row({label, fmt(cfg.n), fmt(cfg.f), "-", fmt(res.log3_bound, 1), "-",
               "-", "-", "-", res.note.substr(0, 28)});
        return;
    }
    t.row({label, fmt(cfg.n), fmt(cfg.f), fmt(res.r),
           fmt(res.log3_bound, 1), fmt(res.survivor_expanding_steps),
           fmt(res.max_reader_exit_rmrs), fmt(res.writer_entry_rmrs),
           fmt(res.max_growth_factor, 2),
           std::string(res.lemma1_violations == 0 ? "0" : "VIOLATED") + "/" +
               (res.lemma4_holds ? "ok" : "VIOLATED")});
}

void frontier_row(Table& t, const Shown& s, const AdversaryResult& res) {
    const auto& [label, cfg] = s;
    if (!res.completed) {
        t.row({label, fmt(cfg.n), "-", "-", "-", "-", res.note.substr(0, 30)});
        return;
    }
    const bool above = above_curve(cfg.n, res);
    t.row({label, fmt(cfg.n), fmt(res.writer_entry_rmrs),
           fmt(res.max_reader_exit_rmrs),
           fmt(std::max(0.0, curve(cfg.n, res)), 2), above ? "yes" : "NO",
           above ? "" : "<-- would contradict Theorem 5"});
}

void check_cell(bench::Kit& kit, const AdversaryConfig& cfg,
                const AdversaryResult& res) {
    const std::string at = to_string(cfg.lock) + " " +
                           to_string(cfg.protocol) + " n=" +
                           std::to_string(cfg.n) + " f=" + std::to_string(cfg.f);
    if (cfg.lock == LockKind::Af) {
        kit.check(res.completed, at + ": construction did not complete");
    }
    if (!res.completed) {
        return;
    }
    kit.check(res.lemma1_violations == 0, at + ": Lemma 1 violated");
    kit.check(res.lemma4_holds, at + ": Lemma 4 violated");
    kit.check(res.max_reader_exit_rmrs >= res.survivor_expanding_steps,
              at + ": exit max below survivor");
    if (cfg.lock == LockKind::Faa) {
        kit.check(res.max_growth_factor > 3,
                  at + ": faa no longer escapes the bound (growth " +
                      fmt(res.max_growth_factor, 2) + " <= 3)");
        kit.check(std::ranges::find(kE3Ns, cfg.n) == std::end(kE3Ns) ||
                      !above_curve(cfg.n, res),
                  "Corollary 6: " + at + ": faa no longer below the curve");
        return;
    }
    kit.check(static_cast<double>(res.r) >= res.log3_bound,
              at + ": r = " + std::to_string(res.r) + " below log3(n/f) = " +
                  fmt(res.log3_bound, 1));
    kit.check(res.max_growth_factor <= 3,
              at + ": growth " + fmt(res.max_growth_factor, 2) +
                  " exceeds 3 (Lemma 2)");
    kit.check(above_curve(cfg.n, res),
              "Corollary 6: " + at + ": reader exit below the curve");
}

/// Appends a row with one payload `group` (nothing without --json).
void push_row(json::Value* results, LockKind lock, Protocol proto,
              std::uint32_t n, std::uint32_t m, std::uint32_t f,
              std::string workload, const char* group, json::Value payload) {
    if (results == nullptr) {
        return;
    }
    auto row = bench::key_row({.lock = to_string(lock),
                               .protocol = to_string(proto), .n = n, .m = m,
                               .f = f, .threads = std::uint64_t{n} + m,
                               .workload = std::move(workload)});
    row.set(group, std::move(payload));
    results->push_back(std::move(row));
}

/// A construction's "lowerbound" payload; just `completed` when it failed.
json::Value lowerbound(const AdversaryResult& res) {
    auto lb = json::Value::object();
    lb.set("completed", res.completed);
    if (res.completed) {
        lb.set("r", res.r);
        lb.set("survivor", res.survivor_expanding_steps);
        lb.set("exit_max", res.max_reader_exit_rmrs);
        lb.set("writer_entry", res.writer_entry_rmrs);
        lb.set("growth", res.max_growth_factor);
        lb.set("lemma1_violations", res.lemma1_violations);
        lb.set("lemma4", res.lemma4_holds);
    }
    return lb;
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("lowerbound", argc, argv, {"--json", "--jobs"});
    json::Value* results = kit.results();
    std::cout << "bench_lowerbound: the Theorem 5 adversarial construction "
                 "(E = E1 E2 E3) and its frontier, every lock (jobs="
              << kit.jobs() << ")\n";

    std::vector<Shown> e2;  // Per-protocol A_f grid.
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {16u, 64u, 256u, 1024u, 4096u}) {
            for (const auto choice :
                 {core::FChoice::One, core::FChoice::Log, core::FChoice::Sqrt,
                  core::FChoice::Linear}) {
                e2.push_back({"A_f(" + to_string(choice) + ")",
                              config(LockKind::Af, n, core::f_of(choice, n),
                                     proto)});
            }
        }
    }
    std::vector<Shown> e2b;  // Baselines (write-back).
    const std::tuple<LockKind, std::vector<std::uint32_t>> baselines[] = {
        {LockKind::Centralized, {16, 64, 256, 1024}},
        {LockKind::ReaderPref, {16, 64, 256}},
        {LockKind::Faa, {16, 256, 4096}},
        {LockKind::BigMutex, {16}}};
    for (const auto& [kind, ns] : baselines) {
        for (const std::uint32_t n : ns) {
            e2b.push_back({to_string(kind), config(kind, n, 1)});
        }
    }
    const AdversaryConfig traced = config(LockKind::Af, 256, 1);  // E2c.
    std::vector<Shown> e3;  // The frontier (write-back).
    for (const std::uint32_t n : kE3Ns) {
        for (const std::uint32_t f : kE3Fs) {
            e3.push_back({"A_f(f=" + std::to_string(f) + ")",
                          config(LockKind::Af, n, f)});
        }
        e3.push_back({"centralized", config(LockKind::Centralized, n, 1)});
        e3.push_back({"reader-pref", config(LockKind::ReaderPref, n, 1)});
        e3.push_back({"faa (non-CAS!)", config(LockKind::Faa, n, 1)});
    }

    // The grid: every construction the tables show, each once.
    std::vector<AdversaryConfig> cells{traced};
    for (const auto* rows : {&e2, &e2b, &e3}) {
        for (const auto& [label, cfg] : *rows) {
            if (std::ranges::none_of(
                    cells, [&](const auto& c) { return same(c, cfg); })) {
                cells.push_back(cfg);
            }
        }
    }
    std::vector<AdversaryResult> grid(cells.size());
    parallel_for(cells.size(), kit.jobs(), [&](std::size_t i) {
        grid[i] = adversary::run_adversary(cells[i]);
    });
    const auto at = [&](const AdversaryConfig& cfg) -> const auto& {
        return bench::lookup(cells, grid, [&](const AdversaryConfig& c) {
            return same(c, cfg);
        });
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const AdversaryConfig& c = cells[i];
        check_cell(kit, c, grid[i]);
        push_row(results, c.lock, c.protocol, c.n, 1, c.f, "theorem5",
                 "lowerbound", lowerbound(grid[i]));
    }

    const std::vector<std::string> columns{
        "lock",     "n",        "f",        "r",      "log3(n/f)",
        "survivor", "exit max", "wr entry", "growth", "L1/L4"};
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E2: A_f under the adversary, protocol = "
                  << to_string(proto) << " ===\n";
        Table t(columns);
        for (const Shown& s : e2) {
            if (s.second.protocol == proto) {
                print_row(t, s, at(s.second));
            }
        }
        t.print();
    }

    std::cout << "\n=== E2b: baselines under the adversary (write-back) ===\n"
              << "(centralized: r = Θ(n); reader-pref: r = Θ(log n); FAA "
                 "escapes -- growth > 3; big-mutex: E1 infeasible)\n";
    Table b(columns);
    for (const Shown& s : e2b) {
        print_row(b, s, at(s.second));
    }
    b.print();

    std::cout << "\n=== E2c: knowledge growth trace (A_f, n=256, f=1) ===\n"
              << "(the 3^j invariant of Theorem 5's construction)\n";
    Table g({"iteration j", "batch", "readers left", "M(E'_j)", "3^j cap",
             "growth"});
    double cap = 1;
    for (std::size_t j = 0; j < at(traced).iterations.size(); ++j) {
        cap *= 3;
        const auto& it = at(traced).iterations[j];
        g.row({fmt(j + 1), fmt(it.batch_size), fmt(it.readers_left),
               fmt(it.max_knowledge), fmt(cap, 0),
               fmt(it.growth_factor, 2)});
        kit.check(static_cast<double>(it.max_knowledge) <= cap,
                  "E2c iteration " + std::to_string(j + 1) + ": M(E'_j) = " +
                      std::to_string(it.max_knowledge) + " exceeds 3^j");
        auto lb = json::Value::object();
        lb.set("batch", it.batch_size);
        lb.set("readers_left", it.readers_left);
        lb.set("max_knowledge", std::uint64_t{it.max_knowledge});
        lb.set("growth", it.growth_factor);
        push_row(results, traced.lock, traced.protocol, traced.n, 1, traced.f,
                 "e2c/j=" + std::to_string(j + 1), "lowerbound", std::move(lb));
    }
    g.print();

    for (const std::uint32_t n : kE3Ns) {
        std::cout << "\n=== E3: frontier at n = " << n
                  << " (write-back) ===\n";
        Table t({"lock", "n", "wr entry", "rd exit", "log3 curve",
                 "on/above?", "note"});
        for (const Shown& s : e3) {
            if (s.second.n == n) {
                frontier_row(t, s, at(s.second));
            }
        }
        t.print();
        for (std::size_t i = 1; i < std::size(kE3Fs); ++i) {
            const auto& lo = at(config(LockKind::Af, n, kE3Fs[i - 1]));
            const auto& hi = at(config(LockKind::Af, n, kE3Fs[i]));
            kit.check(hi.writer_entry_rmrs > lo.writer_entry_rmrs &&
                          hi.max_reader_exit_rmrs <= lo.max_reader_exit_rmrs,
                      "frontier: A_f n=" + std::to_string(n) +
                          " f=" + std::to_string(kE3Fs[i]) +
                          ": writer entry must rise and reader exit not");
        }
    }

    std::cout << "\n=== E3b: Corollary 7 -- passage RMRs vs log2(max(n, m)) "
                 "===\n"
              << "(fair round-robin contended run; every CAS-only lock's "
                 "worst passage must exceed c * log2(max(n,m)))\n";
    std::vector<ExperimentConfig> cfgs;
    for (const LockKind kind :
         {LockKind::Af, LockKind::Centralized, LockKind::ReaderPref}) {
        for (const std::uint32_t n : {16u, 64u, 256u}) {
            ExperimentConfig cfg;
            cfg.lock = kind;
            cfg.n = n;
            cfg.m = 8;
            cfg.f = static_cast<std::uint32_t>(std::sqrt(n));
            cfg.passages = 2;
            cfg.sched = SchedKind::RoundRobin;
            cfg.check_mutual_exclusion = false;
            cfgs.push_back(cfg);
        }
    }
    const auto res = run_experiments(cfgs, kit.jobs());
    Table t({"lock", "n", "m", "rd passage max", "wr passage max",
             "log2(max(n,m))"});
    for (std::size_t j = 0; j < cfgs.size(); ++j) {
        const ExperimentConfig& c = cfgs[j];
        const RoleStats& rd = res[j].readers;
        const RoleStats& wr = res[j].writers;
        const auto floor_log2 = static_cast<std::uint64_t>(
            std::bit_width(std::max(c.n, c.m)) - 1);
        t.row({to_string(c.lock), fmt(c.n), fmt(c.m),
               fmt(rd.max_passage_rmrs), fmt(wr.max_passage_rmrs),
               fmt(floor_log2)});
        kit.check(std::max(rd.max_passage_rmrs, wr.max_passage_rmrs) >=
                      floor_log2,
                  "Corollary 7: " + to_string(c.lock) + " n=" +
                      std::to_string(c.n) + ": worst passage below " +
                      std::to_string(floor_log2));
        push_row(results, c.lock, c.protocol, c.n, c.m, c.f, "e3b", "sim_rmr",
                 bench::sim_rmr(rd.mean_passage_rmrs, rd.max_passage_rmrs,
                                wr.mean_passage_rmrs, wr.max_passage_rmrs));
    }
    t.print();
    return kit.finish();
}
