// E15 -- the CC-vs-DSM separation, measured (ROADMAP item 1; Golab
// arXiv:1109.5153, JJJ arXiv:1904.02124 DSM variant).
//
// The paper states its RMR bounds for both CC and DSM, but an algorithm
// earns the DSM bound only if every busy-wait loop spins on a variable
// homed in the spinner's memory segment. This bench runs the same
// contended grids under Protocol::WriteBack (CC) and Protocol::Dsm and
// exit-code-asserts the two halves of the separation:
//
//   * DSM-HOMED variants (Yang-Anderson tournament, MCS with homed tail,
//     RecoverableJJJMutex in DSM mode, A_f with dsm_local_spin) keep their
//     per-passage RMRs at CC levels at every grid cell -- bounded
//     DSM/CC ratios, and for MCS an absolute O(1) DSM bound.
//   * UNHOMED-spin ablations (the Peterson tournament -- whose per-node
//     flag/victim words structurally cannot be homed -- plus the same MCS
//     / JJJ / A_f built without owner_base, kept as controls) blow up
//     with the contender count under Dsm: every re-read while waiting is
//     remote, so waiting time leaks into the RMR count.
//
// Two grids:
//   E15a (mutex): m writers round-robin through `kPassages` passages of
//        each variant; mean per-passage RMRs = total RMRs / (m * P).
//        Waiting time per passage is Theta(m) under round-robin, which is
//        exactly what the unhomed spins convert into RMRs under Dsm.
//   E15b (A_f): the E1 grid (run_experiments, n readers + 1 writer,
//        round-robin) with the writer dwelling 4n local steps in the CS,
//        so a reader that parks on line 36 waits Theta(n) steps. Plain
//        A_f pays that wait in remote re-reads under Dsm; the
//        dsm_local_spin variant spins on its own gate.
//
// Flags:
//   --json <path>  rwr-bench-v1 rows (sim_rmr + proc_rmr; sim-exact and
//                  deterministic, gated in CI against
//                  BENCH_separation.json).
//   --smoke        truncated grids (CI; also the checked-in baseline).
//   --jobs N       worker threads; results bit-identical for any N.
//
// Regenerating the baseline after an intended protocol/algorithm change:
//   ./build/bench/bench_separation --smoke --json BENCH_separation.json
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"
#include "mutex/sim_mutex.hpp"
#include "recover/recoverable_jjj_mutex.hpp"
#include "sim/passage.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

constexpr int kPassages = 4;

// ---- Assertion thresholds (tuned with margin; sim counts are exact) ----
// Homed variants: DSM mean must stay within this factor of the same
// variant's CC (WriteBack) mean at EVERY cell, largest included. (An
// ABSOLUTE O(1) DSM cap would be wrong here: under lockstep round-robin
// every variant pays Theta(m) somewhere outside its spin -- MCS in tail
// CAS retries, A_f in counter collisions -- in BOTH models; the absolute
// bound is asserted where it holds, on a quiet waiter, in
// test_dsm_locks.)
constexpr double kHomedRatioCap = 4.0;
// Ablations: DSM mean at the largest m must exceed this multiple of the
// DSM mean at the smallest m (the growth half of the separation; the
// smoke grid only spans m = 4..16, so the floor is modest)...
constexpr double kAblationGrowthFloor = 2.0;
// ...and this multiple of the homed counterpart at the largest m (the
// head-to-head half). Binding cell: smoke's peterson-vs-ya at m=16 is
// 1.76x (the gap widens to 4.3x at the full grid's m=64); counts are
// deterministic, so the thin margin only trips on real protocol changes.
constexpr double kSeparationFloor = 1.5;
// E15b readers: homed DSM/CC cap and ablation growth floor.
constexpr double kAfRatioCap = 3.0;
constexpr double kAfGrowthFloor = 3.0;

// ---- E15a: mutex grid ---------------------------------------------------

enum class MxVariant {
    Peterson,    ///< Unhomed by construction: THE structural ablation.
    Ya,          ///< Yang-Anderson, spin vars homed at their slots.
    Mcs,         ///< Queue nodes + tail homed.
    McsUnhomed,  ///< Ablation: same lock, no owner_base.
    Jjj,         ///< Recoverable ticket tree, DSM wake layer on.
    JjjUnhomed,  ///< Ablation: grant-slot spins stay shared.
};

const char* to_string(MxVariant v) {
    switch (v) {
        case MxVariant::Peterson: return "peterson";
        case MxVariant::Ya: return "ya";
        case MxVariant::Mcs: return "mcs";
        case MxVariant::McsUnhomed: return "mcs-unhomed";
        case MxVariant::Jjj: return "jjj";
        case MxVariant::JjjUnhomed: return "jjj-unhomed";
    }
    return "?";
}

bool is_homed(MxVariant v) {
    return v == MxVariant::Ya || v == MxVariant::Mcs || v == MxVariant::Jjj;
}

/// The ablation each homed variant is measured against at the largest m.
MxVariant ablation_of(MxVariant v) {
    switch (v) {
        case MxVariant::Ya: return MxVariant::Peterson;
        case MxVariant::Mcs: return MxVariant::McsUnhomed;
        case MxVariant::Jjj: return MxVariant::JjjUnhomed;
        default: return v;
    }
}

struct MxPoint {
    double mean_passage_rmrs = 0;
    std::vector<std::uint64_t> proc_rmrs;
};

MxPoint measure_mutex(MxVariant v, Protocol proto, std::uint32_t m) {
    sim::System sys(proto);
    Memory& mem = sys.memory();
    std::unique_ptr<mutex::SimMutex> mx;
    std::unique_ptr<recover::RecoverableJJJMutex> jjj;
    switch (v) {
        case MxVariant::Peterson:
            mx = std::make_unique<mutex::TournamentSimMutex>(mem, "mx", m);
            break;
        case MxVariant::Ya:
            mx = std::make_unique<mutex::YaTournamentSimMutex>(mem, "mx", m,
                                                               ProcId{0});
            break;
        case MxVariant::Mcs:
            mx = std::make_unique<mutex::McsSimMutex>(mem, "mx", m,
                                                      ProcId{0});
            break;
        case MxVariant::McsUnhomed:
            mx = std::make_unique<mutex::McsSimMutex>(mem, "mx", m);
            break;
        case MxVariant::Jjj:
            jjj = std::make_unique<recover::RecoverableJJJMutex>(
                mem, "mx", m, ProcId{0});
            break;
        case MxVariant::JjjUnhomed:
            jjj = std::make_unique<recover::RecoverableJJJMutex>(mem, "mx",
                                                                 m);
            break;
    }
    const auto run_writers = [&](auto& target) {
        sim::DriveConfig dc;
        dc.passages = kPassages;
        for (std::uint32_t s = 0; s < m; ++s) {
            sim::install(target, sys.add_process(sim::Role::Writer), dc);
        }
        sim::RoundRobinScheduler rr;
        sim::run(sys, rr, 500'000'000);
    };
    if (mx) {
        mutex::MutexPassage plain{*mx};
        run_writers(plain);
    } else {
        run_writers(*jjj);
    }
    MxPoint out;
    out.mean_passage_rmrs = static_cast<double>(mem.total_rmrs()) /
                            (static_cast<double>(m) * kPassages);
    out.proc_rmrs = mem.proc_rmrs();
    out.proc_rmrs.resize(m, 0);
    return out;
}

void mx_json_row(json::Value* results, MxVariant v, Protocol proto,
                 std::uint32_t m, const MxPoint& pt) {
    if (results == nullptr) {
        return;
    }
    auto row = bench::key_row({.lock = std::string("e15-") + to_string(v),
                               .protocol = rwr::to_string(proto),
                               .n = m, .m = m, .f = 1, .threads = m});
    row.set("sim_rmr", bench::sim_rmr(0, pt.mean_passage_rmrs));
    row.set("proc_rmr", bench::proc_rmr_to_json(pt.proc_rmrs,
                                                /*num_readers=*/0));
    results->push_back(std::move(row));
}

// ---- E15b: A_f grid -----------------------------------------------------

ExperimentConfig af_config(LockKind lock, Protocol proto, std::uint32_t n,
                           std::uint32_t f) {
    ExperimentConfig cfg;
    cfg.lock = lock;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.m = 1;
    cfg.f = f;
    cfg.passages = 2;
    cfg.cs_steps = 4 * n;  // Writer dwell: makes waiting cost visible.
    cfg.sched = SchedKind::RoundRobin;
    cfg.check_mutual_exclusion = false;  // Covered by test_dsm_locks.
    return cfg;
}

void af_json_row(json::Value* results, const ExperimentConfig& cfg,
                 const ExperimentResult& res) {
    if (results == nullptr) {
        return;
    }
    auto row = bench::key_row(
        {.lock = cfg.lock == LockKind::AfDsm ? "e15-af-dsm" : "e15-af",
         .protocol = rwr::to_string(cfg.protocol), .n = cfg.n, .m = cfg.m,
         .f = cfg.f, .threads = cfg.n + cfg.m});
    row.set("sim_rmr", bench::sim_rmr(res.readers.mean_passage_rmrs,
                                      res.readers.max_passage_rmrs,
                                      res.writers.mean_passage_rmrs,
                                      res.writers.max_passage_rmrs));
    row.set("proc_rmr", bench::proc_rmr_to_json(res.proc_rmrs, cfg.n));
    results->push_back(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("separation", argc, argv, {"--json", "--smoke", "--jobs"});
    const bool smoke = kit.smoke();
    const unsigned jobs = kit.jobs();
    json::Value* results = kit.results();

    std::cout << "bench_separation: CC vs DSM per-passage RMRs, homed "
                 "variants vs unhomed-spin ablations (E15, jobs="
              << jobs << (smoke ? ", smoke" : "") << ")\n";

    const std::vector<std::uint32_t> ms =
        smoke ? std::vector<std::uint32_t>{4, 8, 16}
              : std::vector<std::uint32_t>{4, 8, 16, 32, 64};
    const std::vector<MxVariant> variants{
        MxVariant::Peterson, MxVariant::Ya,  MxVariant::Mcs,
        MxVariant::McsUnhomed, MxVariant::Jjj, MxVariant::JjjUnhomed};
    const Protocol protos[] = {Protocol::WriteBack, Protocol::Dsm};

    // -- E15a -------------------------------------------------------------
    struct MxCell {
        MxVariant v;
        Protocol proto;
        std::uint32_t m;
    };
    std::vector<MxCell> cells;
    for (const auto v : variants) {
        for (const auto proto : protos) {
            for (const auto m : ms) {
                cells.push_back({v, proto, m});
            }
        }
    }
    std::vector<MxPoint> pts(cells.size());
    parallel_for(cells.size(), jobs, [&](std::size_t i) {
        pts[i] = measure_mutex(cells[i].v, cells[i].proto, cells[i].m);
    });
    const auto mx_mean = [&](MxVariant v, Protocol proto, std::uint32_t m) {
        return bench::lookup(cells, pts, [&](const MxCell& c) {
                   return c.v == v && c.proto == proto && c.m == m;
               }).mean_passage_rmrs;
    };

    std::cout << "\n=== E15a: mutex per-passage RMRs (m contenders, "
                 "round-robin; ablations vs homed) ===\n";
    Table t({"m", "variant", "CC mean", "DSM mean", "DSM/CC"});
    for (const auto m : ms) {
        for (const auto v : variants) {
            const double cc = mx_mean(v, Protocol::WriteBack, m);
            const double dsm = mx_mean(v, Protocol::Dsm, m);
            t.row({fmt(m), to_string(v), fmt(cc, 1), fmt(dsm, 1),
                   fmt(dsm / std::max(1.0, cc), 2)});
        }
    }
    t.print();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        mx_json_row(results, cells[i].v, cells[i].proto, cells[i].m, pts[i]);
    }

    const std::uint32_t m_lo = ms.front();
    const std::uint32_t m_hi = ms.back();
    for (const auto v : variants) {
        if (is_homed(v)) {
            for (const auto m : ms) {
                const double cc = mx_mean(v, Protocol::WriteBack, m);
                const double dsm = mx_mean(v, Protocol::Dsm, m);
                kit.check(dsm <= kHomedRatioCap * cc,
                          std::string(to_string(v)) +
                              " m=" + std::to_string(m) + ": DSM mean " +
                              fmt(dsm, 1) + " exceeds " +
                              fmt(kHomedRatioCap, 1) + "x CC mean " +
                              fmt(cc, 1));
            }
            const double dsm_hi = mx_mean(v, Protocol::Dsm, m_hi);
            const double abl_hi =
                mx_mean(ablation_of(v), Protocol::Dsm, m_hi);
            kit.check(abl_hi >= kSeparationFloor * dsm_hi,
                      std::string(to_string(ablation_of(v))) + " vs " +
                          to_string(v) + " at m=" + std::to_string(m_hi) +
                          ": ablation " + fmt(abl_hi, 1) + " not >= " +
                          fmt(kSeparationFloor, 1) + "x homed " +
                          fmt(dsm_hi, 1));
        } else {
            const double lo = mx_mean(v, Protocol::Dsm, m_lo);
            const double hi = mx_mean(v, Protocol::Dsm, m_hi);
            kit.check(hi >= kAblationGrowthFloor * lo,
                      std::string(to_string(v)) + ": DSM mean grew only " +
                          fmt(hi / std::max(1.0, lo), 2) + "x from m=" +
                          std::to_string(m_lo) +
                          " to m=" + std::to_string(m_hi));
        }
    }
    // -- E15b -------------------------------------------------------------
    const std::vector<std::uint32_t> ns =
        smoke ? std::vector<std::uint32_t>{4, 8, 16}
              : std::vector<std::uint32_t>{4, 8, 16, 32, 64};
    struct AfCell {
        LockKind lock;
        Protocol proto;
        std::uint32_t n;
        std::uint32_t f;
    };
    // f = 1 (deepest reader tree, line-36 spin always in play) plus a
    // sublinear f at every n where it differs.
    const auto fs_of = [](std::uint32_t n) {
        std::vector<std::uint32_t> fs{1};
        if ((n + 3) / 4 > 1) {
            fs.push_back((n + 3) / 4);
        }
        return fs;
    };
    std::vector<AfCell> acells;
    std::vector<ExperimentConfig> acfgs;
    for (const auto lock : {LockKind::Af, LockKind::AfDsm}) {
        for (const auto proto : protos) {
            for (const auto n : ns) {
                for (const std::uint32_t f : fs_of(n)) {
                    acells.push_back({lock, proto, n, f});
                    acfgs.push_back(af_config(lock, proto, n, f));
                }
            }
        }
    }
    const auto ares = run_experiments(acfgs, jobs);
    const auto af_mean = [&](LockKind lock, Protocol proto, std::uint32_t n,
                             std::uint32_t f) {
        return bench::lookup(acells, ares, [&](const AfCell& c) {
                   return c.lock == lock && c.proto == proto && c.n == n &&
                          c.f == f;
               }).readers.mean_passage_rmrs;
    };

    std::cout << "\n=== E15b: A_f reader per-passage RMRs (writer dwells "
                 "4n steps in CS; plain vs dsm_local_spin) ===\n";
    Table t2({"n", "f", "lock", "rd CC", "rd DSM", "DSM/CC"});
    for (std::size_t i = 0; i < acells.size(); ++i) {
        const auto& c = acells[i];
        if (c.proto != Protocol::WriteBack) {
            continue;
        }
        const double cc = ares[i].readers.mean_passage_rmrs;
        const double dsm = af_mean(c.lock, Protocol::Dsm, c.n, c.f);
        t2.row({fmt(c.n), fmt(c.f),
                c.lock == LockKind::AfDsm ? "af+dsm" : "af", fmt(cc, 1),
                fmt(dsm, 1), fmt(dsm / std::max(1.0, cc), 2)});
    }
    t2.print();
    for (std::size_t i = 0; i < acells.size(); ++i) {
        if (!ares[i].finished) {
            kit.check(false, "E15b cell did not finish (lock=" +
                                 harness::to_string(acells[i].lock) +
                                 " n=" + std::to_string(acells[i].n) + ")");
            continue;
        }
        af_json_row(results, acfgs[i], ares[i]);
    }
    for (const auto n : ns) {
        for (const std::uint32_t f : fs_of(n)) {
            const double cc = af_mean(LockKind::AfDsm, Protocol::WriteBack,
                                      n, f);
            const double dsm = af_mean(LockKind::AfDsm, Protocol::Dsm, n, f);
            kit.check(dsm <= kAfRatioCap * cc,
                      "af+dsm n=" + std::to_string(n) + " f=" +
                          std::to_string(f) + ": reader DSM mean " +
                          fmt(dsm, 1) + " exceeds " + fmt(kAfRatioCap, 1) +
                          "x CC mean " + fmt(cc, 1));
        }
    }
    {
        const std::uint32_t n_lo = ns.front(), n_hi = ns.back();
        const double lo = af_mean(LockKind::Af, Protocol::Dsm, n_lo, 1);
        const double hi = af_mean(LockKind::Af, Protocol::Dsm, n_hi, 1);
        kit.check(hi >= kAfGrowthFloor * lo,
                  "plain af ablation: reader DSM mean grew only " +
                      fmt(hi / std::max(1.0, lo), 2) + "x from n=" +
                      std::to_string(n_lo) + " to n=" + std::to_string(n_hi));
    }

    return kit.finish(
        "\nAll separation checks passed: homed variants hold CC "
        "levels under DSM; unhomed ablations grow.\n");
}
