// E1 -- Theorem 18 upper bounds, the reproduction's "Table 1".
//
// For a sweep of n and every named f(n) choice, drives all n readers plus
// one writer through passages of A_f on the simulated CC machine and
// reports measured per-passage RMRs against the predicted complexities:
// readers Θ(log2(n/f)), writers Θ(f). The paper claims the tradeoff is
// tight for every f; the fitted ratios (measured / predicted) must stay
// flat as n grows. The grid tops out at n = 4096 -- within reach since the
// engine overhaul (allocation-free stepping + maintained runnable index);
// independent (protocol, n, f) cells run on a thread pool (--jobs N).
//
// Flags:
//   --json <path>  additionally emits the sweep as an "rwr-bench-v1"
//                  document, one row per (protocol, n, f): sim_rmr and
//                  proc_rmr (exact, deterministic -- any delta is a real
//                  protocol change) plus sim_perf {steps, wall_ms, cpu_ms,
//                  steps_per_sec} (engine speed over the cell's thread CPU
//                  time; steps_per_sec is gated by bench_compare
//                  --max-perf-drop with a wide tolerance).
//   --jobs N       worker threads (default: hardware concurrency). Cell
//                  results are bit-identical for every N.
//
// E7 rides on the same rows: at f = sqrt n the write-through/write-back
// reader ratio must lie in [1.0, 1.2] at every n, and each protocol's
// reader RMRs per log2 K may spread at most 1.5x over n.
//
// Exit 1 when a cell does not finish, an E7 check fails, or the JSON
// cannot be written.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/af_params.hpp"
#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

double log2_of(std::uint32_t x) {
    return x <= 1 ? 1.0 : static_cast<double>(std::bit_width(x - 1));
}

struct Cell {
    Protocol proto;
    std::uint32_t n;
    core::FChoice choice;
    std::uint32_t f;
};

ExperimentConfig config_for(const Cell& c) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = c.proto;
    cfg.n = c.n;
    cfg.m = 1;
    cfg.f = c.f;
    cfg.passages = 2;
    cfg.sched = SchedKind::RoundRobin;
    cfg.check_mutual_exclusion = false;  // Speed; correctness is covered by
                                         // the test suite.
    return cfg;
}

void json_row(json::Value* results, const Cell& c, const ExperimentConfig& cfg,
              const ExperimentResult& res) {
    if (results == nullptr) {
        return;
    }
    auto row = bench::key_row({.lock = "af", .protocol = to_string(c.proto),
                               .n = cfg.n, .m = cfg.m, .f = cfg.f,
                               .threads = cfg.n + cfg.m});
    row.set("sim_rmr", bench::sim_rmr(res.readers.mean_passage_rmrs,
                                      res.readers.max_passage_rmrs,
                                      res.writers.mean_passage_rmrs,
                                      res.writers.max_passage_rmrs));
    row.set("sim_perf", bench::sim_perf(res.steps, res.wall_ms, res.cpu_ms));
    row.set("proc_rmr", bench::proc_rmr_to_json(res.proc_rmrs, cfg.n));
    results->push_back(std::move(row));
}

/// E7 over the f = ceil(sqrt n) rows (paper Section 2: "Our results apply
/// to both the write-through and write-back CC coherence protocols"): at
/// every n the two protocols' reader costs differ by a bounded constant,
/// and under each the reader cost per log2 K stays flat in n.
void check_protocols(bench::Kit& kit, const std::vector<Cell>& cells,
                     const std::vector<ExperimentResult>& res) {
    std::cout << "\n=== E7: write-through vs write-back, f = sqrt n ===\n";
    Table t({"n", "f", "rd WT", "rd WB", "WT/WB", "rdWT/logK", "rdWB/logK"});
    std::vector<double> per_log[2];  // Reader mean / log2 K, WT then WB.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        if (c.proto != Protocol::WriteThrough ||
            c.choice != core::FChoice::Sqrt) {
            continue;
        }
        const auto wb =
            std::find_if(cells.begin(), cells.end(), [&](const Cell& o) {
                return o.proto == Protocol::WriteBack && o.n == c.n &&
                       o.choice == c.choice;
            });
        const ExperimentResult& rt = res[i];
        const ExperimentResult& rb = res[wb - cells.begin()];
        if (!rt.finished || !rb.finished) {
            continue;  // Already a failed E1 check.
        }
        const double log_k = log2_of((c.n + c.f - 1) / c.f);
        const double rd_wt = rt.readers.mean_passage_rmrs;
        const double rd_wb = rb.readers.mean_passage_rmrs;
        per_log[0].push_back(rd_wt / log_k);
        per_log[1].push_back(rd_wb / log_k);
        t.row({fmt(c.n), fmt(c.f), fmt(rd_wt), fmt(rd_wb),
               fmt(rd_wt / rd_wb, 3), fmt(rd_wt / log_k, 2),
               fmt(rd_wb / log_k, 2)});
        kit.check(rd_wt >= rd_wb && rd_wt <= 1.2 * rd_wb,
                  "E7 n=" + std::to_string(c.n) +
                      ": write-through/write-back reader ratio " +
                      fmt(rd_wt / rd_wb, 3) + " outside [1.0, 1.2]");
    }
    t.print();
    for (int p = 0; p < 2; ++p) {
        const auto [lo, hi] =
            std::minmax_element(per_log[p].begin(), per_log[p].end());
        const std::string proto = p == 0 ? "write-through" : "write-back";
        kit.check(lo != per_log[p].end() && *hi <= 1.5 * *lo,
                  "E7 " + proto + ": reader RMRs per log2 K spread above "
                                  "1.5x over n");
    }
}

void run_sweep(bench::Kit& kit) {
    std::vector<Cell> cells;
    std::vector<ExperimentConfig> cfgs;
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u,
                                      1024u, 2048u, 4096u}) {
            for (const auto choice :
                 {core::FChoice::One, core::FChoice::Log, core::FChoice::Sqrt,
                  core::FChoice::Linear}) {
                cells.push_back({proto, n, choice, core::f_of(choice, n)});
                cfgs.push_back(config_for(cells.back()));
            }
        }
    }
    const auto res = run_experiments(cfgs, kit.jobs());

    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E1: A_f passage RMRs, protocol = "
                  << to_string(proto) << " ===\n"
                  << "(reader prediction: log2(K); writer prediction: f; "
                     "ratios must stay flat in n)\n";
        Table t({"n", "f(n)", "f", "K", "rd mean", "rd max", "rd/logK",
                 "wr mean", "wr max", "wr/f", "Msteps/s"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].proto != proto) {
                continue;
            }
            const Cell& c = cells[i];
            const ExperimentResult& r = res[i];
            kit.check(r.finished, "E1 " + to_string(proto) +
                                      " n=" + std::to_string(c.n) + " f=" +
                                      std::to_string(c.f) +
                                      ": experiment did not finish");
            if (!r.finished) {
                continue;
            }
            // At n = 32, f = log n and f = sqrt n are both 6: the table
            // shows both choices, the document one row per row key.
            if (std::none_of(cells.begin(), cells.begin() + i,
                             [&](const Cell& o) {
                                 return o.proto == c.proto && o.n == c.n &&
                                        o.f == c.f;
                             })) {
                json_row(kit.results(), c, cfgs[i], r);
            }
            const std::uint32_t K = (c.n + c.f - 1) / c.f;
            const double rd_pred = log2_of(K);
            const double wr_pred = static_cast<double>(c.f);
            const double msteps =
                r.wall_ms > 0 ? static_cast<double>(r.steps) /
                                    (r.wall_ms * 1000.0)
                              : 0.0;
            t.row({fmt(c.n), to_string(c.choice), fmt(c.f), fmt(K),
                   fmt(r.readers.mean_passage_rmrs),
                   fmt(r.readers.max_passage_rmrs),
                   fmt(r.readers.mean_passage_rmrs / rd_pred, 2),
                   fmt(r.writers.mean_passage_rmrs),
                   fmt(r.writers.max_passage_rmrs),
                   fmt(r.writers.mean_passage_rmrs / wr_pred, 2),
                   fmt(msteps, 1)});
        }
        t.print();
    }
    check_protocols(kit, cells, res);
}

void run_rounding_ablation(bench::Kit& kit) {
    // Group-size rounding ablation (DESIGN.md §6): K = ceil(n/f) leaves
    // some groups partially filled when f does not divide n; show the
    // constants are unaffected.
    std::cout << "\n=== E1b: rounding ablation (n not divisible by f) ===\n";
    std::vector<std::pair<std::uint32_t, std::uint32_t>> nf;
    std::vector<ExperimentConfig> cfgs;
    for (const std::uint32_t n : {100u, 321u, 1000u}) {
        for (const std::uint32_t f : {3u, 7u, 13u}) {
            nf.emplace_back(n, f);
            ExperimentConfig cfg;
            cfg.lock = LockKind::Af;
            cfg.n = n;
            cfg.m = 1;
            cfg.f = f;
            cfg.passages = 2;
            cfg.sched = SchedKind::RoundRobin;
            cfg.check_mutual_exclusion = false;
            cfgs.push_back(cfg);
        }
    }
    const auto res = run_experiments(cfgs, kit.jobs());
    Table t({"n", "f", "K", "groups", "rd mean", "wr mean"});
    for (std::size_t i = 0; i < nf.size(); ++i) {
        const auto [n, f] = nf[i];
        kit.check(res[i].finished, "E1b n=" + std::to_string(n) + " f=" +
                                       std::to_string(f) +
                                       ": experiment did not finish");
        const std::uint32_t K = (n + f - 1) / f;
        t.row({fmt(n), fmt(f), fmt(K), fmt((n + K - 1) / K),
               fmt(res[i].readers.mean_passage_rmrs),
               fmt(res[i].writers.mean_passage_rmrs)});
    }
    t.print();
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("tradeoff", argc, argv, {"--json", "--jobs"});
    std::cout << "bench_tradeoff: reproduces the paper's Theorem 18 "
                 "complexity claims for the A_f family (jobs="
              << kit.jobs() << ")\n";
    run_sweep(kit);
    run_rounding_ablation(kit);
    return kit.finish();
}
