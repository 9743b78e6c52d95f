// E17 -- the distributed lock-service tier, measured (ROADMAP "Distributed
// lock-service tier"; the E15 separation cashed in at the service level).
//
// A shards x sessions x reader-ratio grid over the sharded lock table of
// src/dist/, run on BOTH backends:
//
//   * sim (protocol "dsm-sim"): every one-sided verb is a Memory step
//     under Protocol::Dsm, so network-RMRs-per-op is exact and
//     deterministic. The grid exit-code-asserts the service-level
//     separation: the HOMED layout (waiters spin on their own locally-
//     homed gates, releasers pay O(1) verbs per hand-off) keeps network
//     RMRs per op flat as sessions grow, while the UNHOMED ablation
//     (waiters re-poll the shard words remotely) converts waiting time
//     into network RMRs and grows with contention -- E15's two halves,
//     now for a client/server lock table.
//   * native loopback (protocol "loopback"): a real lock_serviced daemon
//     (in-process, real TCP control channel + real shm attach) under the
//     deterministic load generator -- >=1k sessions x >=1k ops (>=1M
//     acquire/release ops) even in --smoke, exit-code-asserted.
//
// Mutual exclusion is never assumed: every table entry carries a witness
// word (writers CAS it, readers assert it zero), and any violation on
// either backend fails the run. The loopback leg additionally cross-checks
// daemon-side STATS (read from the live shm words over TCP) against
// client-side op counts.
//
// Flags:
//   --json <path>  rwr-bench-v1 rows ("dist" payload; sim rows are exact
//                  and machine-independent, loopback rows add wall-clock
//                  throughput/latency fields).
//   --smoke        truncated grid (CI).
//   --sim-only     emit only the deterministic sim cells -- this is how
//                  the checked-in BENCH_dist.json baseline is generated.
//   --jobs N       worker threads; sim rows bit-identical for any N.
//
// Regenerating the baseline after an intended protocol change:
//   ./build/bench/bench_dist --smoke --sim-only --json BENCH_dist.json
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dist/bench_rows.hpp"
#include "dist/load.hpp"
#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "dist/sim_table.hpp"
#include "harness/bench_kit.hpp"
#include "harness/table.hpp"

namespace {

using namespace rwr;
using namespace rwr::dist;
using harness::fmt;
using harness::Table;
namespace bench = rwr::harness::bench;
namespace json = rwr::harness::json;

// ---- Assertion thresholds (sim counts are exact; margins absorb only
// intended-protocol-change retuning, not noise) ----------------------------
// Homed flatness: network RMRs per op at the largest session count must
// stay within this factor of the smallest (the O(1)-per-hand-off claim).
constexpr double kHomedFlatCap = 3.0;
// Unhomed growth: per-op RMRs at the largest session count must exceed
// this multiple of the smallest (waiting time leaking into verbs).
constexpr double kGrowthFloor = 3.0;
// Head-to-head at the largest session count, writer-only grid.
constexpr double kSeparationFloor = 3.0;
// Head-to-head at the largest session count, reader-heavy grid (readers
// wait only while writers drain, so the aggregate gap is smaller).
constexpr double kMixedSeparationFloor = 1.5;

struct SimCell {
    std::string name;
    DistSimConfig cfg;
};

DistSimConfig make_cfg(std::uint32_t shards, std::uint32_t locks_per_shard,
                       std::uint32_t sessions, bool homed,
                       std::uint32_t reader_pct, std::uint32_t ops) {
    DistSimConfig c;
    c.table.shards = shards;
    c.table.locks_per_shard = locks_per_shard;
    c.table.sessions = sessions;
    c.table.homed = homed;
    c.reader_pct = reader_pct;
    c.ops_per_session = ops;
    // The writer dwells proportionally to the session count, so waiting
    // time grows with contention -- exactly what the unhomed ablation
    // converts into network RMRs (the E15b pattern).
    c.writer_cs_steps = 2 * sessions;
    c.seed = 1;
    return c;
}

void sim_json_row(json::Value* results, const SimCell& cell,
                  const DistSimResult& r) {
    if (results == nullptr) {
        return;
    }
    DistRowMetrics m;
    m.ops = r.total_ops;
    m.network_rmrs_per_op = r.network_rmrs_per_op;
    // threads=1 by convention: sim rows are bit-identical for any --jobs,
    // so the worker count must not fork the bench_diff row keyspace.
    results->push_back(dist_row(cell.name, "dsm-sim", cell.cfg.table,
                                cell.cfg.reader_pct, 1, m));
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("dist", argc, argv,
                   {"--json", "--smoke", "--sim-only", "--jobs"});
    const bool smoke = kit.smoke();
    const bool sim_only = kit.has("--sim-only");
    const unsigned jobs = kit.jobs();
    json::Value* results = kit.results();

    std::cout << "bench_dist: sharded lock table over one-sided verbs, "
                 "homed vs unhomed, sim + loopback (E17, jobs="
              << jobs << (smoke ? ", smoke" : "") << ")\n";

    // ---- Sim grid -------------------------------------------------------
    const std::vector<std::uint32_t> session_grid =
        smoke ? std::vector<std::uint32_t>{4, 16}
              : std::vector<std::uint32_t>{4, 8, 16, 32};
    const std::uint32_t ops = smoke ? 6 : 8;

    std::vector<SimCell> cells;
    // Writer-only separation cells: one lock, all sessions collide.
    for (const bool homed : {true, false}) {
        for (const auto s : session_grid) {
            cells.push_back({homed ? "e17-dist-homed" : "e17-dist-unhomed",
                             make_cfg(1, 1, s, homed, 0, ops)});
        }
    }
    // Reader-heavy cells: same collision pattern, 90% readers.
    for (const bool homed : {true, false}) {
        for (const auto s : session_grid) {
            cells.push_back({homed ? "e17-dist-homed-r90"
                                   : "e17-dist-unhomed-r90",
                             make_cfg(1, 1, s, homed, 90, ops)});
        }
    }
    // Shard scaling: spreading the same load over more shards (homed).
    for (const std::uint32_t shards : {1u, 4u}) {
        cells.push_back({"e17-dist-shards",
                         make_cfg(shards, 4, session_grid.back(), true, 50,
                                  ops)});
    }

    std::vector<DistSimConfig> cfgs;
    cfgs.reserve(cells.size());
    for (const auto& c : cells) {
        cfgs.push_back(c.cfg);
    }
    const std::vector<DistSimResult> rs = run_dist_sim_grid(cfgs, jobs);

    std::cout << "\n=== E17a: sim backend, network RMRs per op "
                 "(deterministic) ===\n";
    Table t({"cell", "shards", "sessions", "r%", "ops", "net-rmrs/op",
             "violations"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        const auto& r = rs[i];
        t.row({c.name, fmt(c.cfg.table.shards), fmt(c.cfg.table.sessions),
               fmt(c.cfg.reader_pct), fmt(r.total_ops),
               fmt(r.network_rmrs_per_op, 2), fmt(r.witness_violations)});
        kit.check(r.finished, c.name + " s=" +
                                  std::to_string(c.cfg.table.sessions) +
                                  ": run did not finish (deadlock?)");
        kit.check(r.witness_violations == 0,
                  c.name + " s=" + std::to_string(c.cfg.table.sessions) +
                      ": witness violations");
        sim_json_row(results, c, r);
    }
    t.print();

    const auto cell_rmrs = [&](const std::string& name,
                               std::uint32_t sessions) {
        return bench::lookup(cells, rs, [&](const SimCell& c) {
                   return c.name == name && c.cfg.table.sessions == sessions;
               }).network_rmrs_per_op;
    };
    const std::uint32_t s_lo = session_grid.front();
    const std::uint32_t s_hi = session_grid.back();

    // The separation, writer-only grid.
    {
        const double homed_lo = cell_rmrs("e17-dist-homed", s_lo);
        const double homed_hi = cell_rmrs("e17-dist-homed", s_hi);
        const double abl_lo = cell_rmrs("e17-dist-unhomed", s_lo);
        const double abl_hi = cell_rmrs("e17-dist-unhomed", s_hi);
        kit.check(homed_hi <= kHomedFlatCap * homed_lo,
                  "homed not flat: " + fmt(homed_hi, 2) + " at s=" +
                      std::to_string(s_hi) + " vs " + fmt(homed_lo, 2) +
                      " at s=" + std::to_string(s_lo));
        kit.check(abl_hi >= kGrowthFloor * abl_lo,
                  "unhomed did not grow: " + fmt(abl_hi, 2) + " at s=" +
                      std::to_string(s_hi) + " vs " + fmt(abl_lo, 2) +
                      " at s=" + std::to_string(s_lo));
        kit.check(abl_hi >= kSeparationFloor * homed_hi,
                  "no separation at s=" + std::to_string(s_hi) + ": unhomed " +
                      fmt(abl_hi, 2) + " vs homed " + fmt(homed_hi, 2));
    }
    // The separation, reader-heavy grid.
    {
        const double homed_hi = cell_rmrs("e17-dist-homed-r90", s_hi);
        const double abl_hi = cell_rmrs("e17-dist-unhomed-r90", s_hi);
        kit.check(abl_hi >= kMixedSeparationFloor * homed_hi,
                  "no r90 separation at s=" + std::to_string(s_hi) +
                      ": unhomed " + fmt(abl_hi, 2) + " vs homed " +
                      fmt(homed_hi, 2));
    }

    // ---- Native loopback ------------------------------------------------
    if (!sim_only) {
        std::cout << "\n=== E17b: native loopback (lock_serviced in-process, "
                     "real TCP + shm) ===\n";
        struct NativeCell {
            std::string name;
            TableConfig cfg;
            std::uint32_t ops;
            std::uint32_t reader_pct;
        };
        std::vector<NativeCell> ncells;
        // The load bar: >=1k sessions, >=1M total ops, even in smoke.
        ncells.push_back({"e17-loopback-homed",
                          {8, 4, 1024, true},
                          1024,
                          90});
        // Unhomed ablation on the native backend: ME must hold there too
        // (small cell; remote-spin burn is real CPU, not sim steps).
        ncells.push_back({"e17-loopback-unhomed",
                          {2, 2, 64, false},
                          smoke ? 128u : 256u,
                          50});
        if (!smoke) {
            ncells.push_back({"e17-loopback-homed",
                              {8, 4, 2048, true},
                              1024,
                              50});
        }

        Table nt({"cell", "shards", "sessions", "r%", "ops", "Mops/s",
                  "net-rmrs/op", "p99 us", "violations"});
        for (const auto& nc : ncells) {
            LockServiceDaemon daemon(nc.cfg);
            daemon.start();
            DistClient client;
            client.connect("127.0.0.1", daemon.port());
            auto spots =
                std::make_unique<native::ParkingSpot[]>(nc.cfg.sessions);
            NativeTable table(client.words(), client.config(), spots.get());
            LoadConfig lc;
            lc.ops_per_session = nc.ops;
            lc.reader_pct = nc.reader_pct;
            lc.seed = 1;
            lc.jobs = jobs;
            const LoadResult res = run_load(table, lc);
            const double rmrs_per_op =
                res.merged.total_ops() == 0
                    ? 0.0
                    : static_cast<double>(res.merged.network_rmrs) /
                          static_cast<double>(res.merged.total_ops());
            nt.row({nc.name, fmt(nc.cfg.shards), fmt(nc.cfg.sessions),
                    fmt(nc.reader_pct), fmt(res.merged.total_ops()),
                    fmt(res.ops_per_sec / 1e6, 2), fmt(rmrs_per_op, 2),
                    fmt(res.merged.percentile_us(0.99), 1),
                    fmt(res.witness_violations)});

            kit.check(res.witness_violations == 0,
                      nc.name + " s=" + std::to_string(nc.cfg.sessions) +
                          ": witness violations on loopback");
            const CtrlReply st = client.stats();
            kit.check(st.ok == 1 &&
                          st.tickets_issued == res.merged.write_ops &&
                          st.witness_nonzero == 0 && st.readers_active == 0,
                      nc.name + ": daemon-side stats disagree with client "
                                "counts after quiesce");
            if (nc.cfg.sessions >= 1024) {
                kit.check(res.merged.total_ops() >= 1'000'000,
                          "loopback load bar: expected >=1M ops, got " +
                              std::to_string(res.merged.total_ops()));
            }
            if (results != nullptr) {
                DistRowMetrics m;
                m.ops = res.merged.total_ops();
                m.network_rmrs_per_op = rmrs_per_op;
                m.ops_per_sec = res.ops_per_sec;
                m.p50_acquire_us = res.merged.percentile_us(0.50);
                m.p99_acquire_us = res.merged.percentile_us(0.99);
                m.wall_ms = res.wall_ms;
                results->push_back(dist_row(nc.name, "loopback", nc.cfg,
                                            nc.reader_pct, jobs, m));
            }
            client.shutdown_server();
            client.close();
            daemon.stop();
        }
        nt.print();
    }

    return kit.finish("\nall E17 checks passed\n");
}
