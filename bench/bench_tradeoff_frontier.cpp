// E3 -- Corollaries 6 & 7: the tradeoff frontier.
//
// For every lock, places its (writer-entry RMRs, reader-exit RMRs) point
// (both measured under the adversary, the worst case the theory speaks
// about) against the curve exit >= log3(n / entry). Read/write/CAS locks
// must sit on or above the curve; A_f traces the frontier as f sweeps; the
// FAA lock sits below it (different primitive set).
//
// Also checks Corollary 7's max(log n, log m) form: for each lock the
// total passage RMR (max of reader and writer) is compared against
// log2(max(n, m)).
//
// Adversary constructions and contended runs are independent cells; both
// phases run on the parallel sweep runner (--jobs N).
#include <bit>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct FrontierCell {
    std::string label;
    adversary::AdversaryConfig cfg;
    adversary::AdversaryResult res;
};

void frontier_row(Table& t, const FrontierCell& c) {
    const auto& res = c.res;
    if (!res.completed) {
        t.row({c.label, fmt(c.cfg.n), "-", "-", "-", "-",
               res.note.substr(0, 30)});
        return;
    }
    const double curve =
        std::log(static_cast<double>(c.cfg.n) /
                 std::max<double>(1.0, static_cast<double>(
                                           res.writer_entry_rmrs))) /
        std::log(3.0);
    const bool above = static_cast<double>(res.max_reader_exit_rmrs) >=
                       curve - 1.0;
    t.row({c.label, fmt(c.cfg.n), fmt(res.writer_entry_rmrs),
           fmt(res.max_reader_exit_rmrs), fmt(std::max(0.0, curve), 2),
           above ? "yes" : "NO",
           above ? "" : "<-- would contradict Theorem 5"});
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("tradeoff_frontier", argc, argv, {"--jobs"});
    std::cout << "bench_tradeoff_frontier: every lock against the curve "
                 "reader-exit >= log3(n / writer-entry) (jobs="
              << kit.jobs() << ")\n";

    std::vector<FrontierCell> cells;
    auto add = [&cells](const std::string& label, LockKind kind,
                        std::uint32_t n, std::uint32_t f) {
        adversary::AdversaryConfig cfg;
        cfg.lock = kind;
        cfg.n = n;
        cfg.f = f;
        cells.push_back({label, cfg, {}});
    };
    for (const std::uint32_t n : {64u, 256u, 1024u}) {
        for (const std::uint32_t f : {1u, 4u, 16u, 64u}) {
            if (f <= n) {
                add("A_f(f=" + std::to_string(f) + ")", LockKind::Af, n, f);
            }
        }
        add("centralized", LockKind::Centralized, n, 1);
        add("reader-pref", LockKind::ReaderPref, n, 1);
        add("faa (non-CAS!)", LockKind::Faa, n, 1);
    }
    parallel_for(cells.size(), kit.jobs(), [&](std::size_t i) {
        cells[i].res = adversary::run_adversary(cells[i].cfg);
    });

    std::size_t i = 0;
    for (const std::uint32_t n : {64u, 256u, 1024u}) {
        std::cout << "\n=== E3: frontier at n = " << n
                  << " (write-back) ===\n";
        Table t({"lock", "n", "wr entry", "rd exit", "log3 curve",
                 "on/above?", "note"});
        for (; i < cells.size() && cells[i].cfg.n == n; ++i) {
            frontier_row(t, cells[i]);
        }
        t.print();
    }

    std::cout << "\n=== E3b: Corollary 7 -- passage RMRs vs log2(max(n, m)) "
                 "===\n"
              << "(fair round-robin contended run; every CAS-only lock's "
                 "worst passage must exceed c * log2(max(n,m)))\n";
    std::vector<std::pair<LockKind, std::uint32_t>> e3b_cells;
    std::vector<ExperimentConfig> cfgs;
    for (const LockKind kind :
         {LockKind::Af, LockKind::Centralized, LockKind::ReaderPref}) {
        for (const std::uint32_t n : {16u, 64u, 256u}) {
            e3b_cells.emplace_back(kind, n);
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
    for (std::size_t j = 0; j < e3b_cells.size(); ++j) {
        const auto [kind, n] = e3b_cells[j];
        t.row({to_string(kind), fmt(n), fmt(8u),
               fmt(res[j].readers.max_passage_rmrs),
               fmt(res[j].writers.max_passage_rmrs),
               fmt(static_cast<std::uint64_t>(
                   std::bit_width(std::max(n, 8u)) - 1))});
    }
    t.print();
    return kit.finish();
}
