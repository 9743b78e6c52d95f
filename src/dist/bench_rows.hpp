// rwr-bench-v1 row construction for the distributed tier, shared by
// lock_serviced and bench_dist so the two emitters cannot drift on field
// conventions. Row key fields for dist rows:
//
//   lock     cell name ("e17-dist-homed", "lockserviced-load", ...)
//   protocol "dsm-sim" (verb layer over Memory/Dsm) or "loopback" (shm+TCP)
//   n        sessions          m  shards
//   f        total locks       threads  worker threads (1 on the sim)
//   workload "r<reader_pct>"
//
// The "dist" payload group carries the metrics (bench_json.hpp validates
// it): ops / network_rmrs_per_op / sessions / shards always; ops_per_sec,
// p50/p99 acquire latency and wall_ms only on native rows, where they are
// wall-clock (bench_diff gates them with the wide perf tolerance).
#pragma once

#include <string>

#include "dist/layout.hpp"
#include "harness/bench_json.hpp"

namespace rwr::dist {

struct DistRowMetrics {
    std::uint64_t ops = 0;
    double network_rmrs_per_op = 0;
    // Native-only (negative = omit).
    double ops_per_sec = -1;
    double p50_acquire_us = -1;
    double p99_acquire_us = -1;
    double wall_ms = -1;
};

inline harness::json::Value dist_row(const std::string& lock,
                                     const std::string& protocol,
                                     const TableConfig& cfg,
                                     std::uint32_t reader_pct,
                                     unsigned threads,
                                     const DistRowMetrics& m) {
    namespace json = harness::json;
    json::Value row = harness::bench::key_row(
        {.lock = lock, .protocol = protocol, .n = cfg.sessions,
         .m = cfg.shards, .f = cfg.num_locks(), .threads = threads,
         .workload = "r" + std::to_string(reader_pct)});
    json::Value d = json::Value::object();
    d.set("ops", m.ops);
    d.set("network_rmrs_per_op", m.network_rmrs_per_op);
    d.set("sessions", cfg.sessions);
    d.set("shards", cfg.shards);
    if (m.ops_per_sec >= 0) {
        d.set("ops_per_sec", m.ops_per_sec);
    }
    if (m.p50_acquire_us >= 0) {
        d.set("p50_acquire_us", m.p50_acquire_us);
    }
    if (m.p99_acquire_us >= 0) {
        d.set("p99_acquire_us", m.p99_acquire_us);
    }
    if (m.wall_ms >= 0) {
        d.set("wall_ms", m.wall_ms);
    }
    row.set("dist", std::move(d));
    return row;
}

}  // namespace rwr::dist
