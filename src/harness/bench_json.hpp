// The "rwr-bench-v1" JSON schema: one document per bench binary run, a
// flat results array so bench_compare can join rows across runs.
//
//   {
//     "schema":  "rwr-bench-v1",
//     "bench":   "native_throughput" | "tradeoff" | "metrics",
//     "results": [ { "lock", "n", "f", "threads",          <- required
//                    "m"?, "protocol"?,
//                    "throughput_ops"?,                    <- native rows
//                    "latency_ns"?   { <histo>: {p50,p90,p99,max} },
//                    "telemetry"?    { <counter>: u64 },
//                    "sim_rmr"?      { reader_mean_passage, reader_max_passage,
//                                      writer_mean_passage, writer_max_passage },
//                    "sim_perf"?     { steps, wall_ms, steps_per_sec },
//                    "explore"?      { schedules_explored, violations,
//                                      truncated_runs, reduction_factor,
//                                      schedules_per_sec, wall_ms },
//                    "proc_rmr"?     { reader_total_mean, reader_total_max,
//                                      writer_total_mean, writer_total_max },
//                    "dist"?         { ops, network_rmrs_per_op, sessions,
//                                      shards, ops_per_sec?, p50_acquire_us?,
//                                      p99_acquire_us?, wall_ms? },
//                    "amortized"?    { episodes, aborted, passages,
//                                      writer_amortized_rmrs,
//                                      abort_rmr_mean?, abort_rmr_max?,
//                                      expected_rmr?, ci95?, trials?,
//                                      worst_case_rmr? } } ]
//   }
//
// Every writer starts a row with key_row(): the row key (lock, protocol?,
// n, m, f, threads, workload?) that bench_compare joins runs on, defined
// once below. A row must carry at least one payload group
// (throughput_ops, sim_rmr, sim_perf, explore, dist or amortized);
// validate() enforces exactly this and is shared by the writers (so a
// binary can never emit an invalid file) and by `bench_compare --check`.
// sim_rmr counts are exact (any diff is a protocol change); sim_perf.steps
// is exact too, but wall_ms / steps_per_sec are wall-clock and
// machine-dependent -- bench_compare gates them with a much wider
// tolerance (--max-perf-drop) than the sim-RMR gate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "native/telemetry.hpp"

namespace rwr::harness::bench {

inline constexpr const char* kSchemaName = "rwr-bench-v1";

inline json::Value make_doc(const std::string& bench_name) {
    json::Value doc = json::Value::object();
    doc.set("schema", kSchemaName);
    doc.set("bench", bench_name);
    doc.set("results", json::Value::array());
    return doc;
}

/// The row key: the fields bench_compare joins rows of two runs on
/// (bench_diff.hpp row_key). Every row writer starts from key_row().
struct RowKey {
    std::string lock;
    std::string protocol = {};  ///< Omitted from the row when empty.
    std::uint64_t n = 0;
    std::uint64_t m = 0;
    std::uint64_t f = 0;
    std::uint64_t threads = 0;
    std::string workload = {};  ///< Omitted from the row when empty.
};

/// The RowKey fields in document order, with the tag row_key() prints
/// before each value.
inline constexpr std::pair<const char*, const char*> kRowKeyFields[] = {
    {"lock", ""}, {"protocol", ""}, {"n", "n"},       {"m", "m"},
    {"f", "f"},   {"threads", "t"}, {"workload", "w"}};

/// A results row holding just its key, fields in kRowKeyFields order;
/// the payload groups are set() after it.
inline json::Value key_row(const RowKey& key) {
    json::Value row = json::Value::object();
    row.set("lock", key.lock);
    if (!key.protocol.empty()) {
        row.set("protocol", key.protocol);
    }
    row.set("n", key.n);
    row.set("m", key.m);
    row.set("f", key.f);
    row.set("threads", key.threads);
    if (!key.workload.empty()) {
        row.set("workload", key.workload);
    }
    return row;
}

/// "sim_rmr" payload, per-passage means only. Values keep their JSON
/// type: an integer 0 stays "0", a double 0 prints "0.0".
inline json::Value sim_rmr(json::Value reader_mean, json::Value writer_mean) {
    json::Value rmr = json::Value::object();
    rmr.set("reader_mean_passage", std::move(reader_mean));
    rmr.set("writer_mean_passage", std::move(writer_mean));
    return rmr;
}

/// "sim_rmr" payload, per-passage means and maxes of each role.
inline json::Value sim_rmr(double reader_mean, std::uint64_t reader_max,
                           double writer_mean, std::uint64_t writer_max) {
    json::Value rmr = json::Value::object();
    rmr.set("reader_mean_passage", reader_mean);
    rmr.set("reader_max_passage", reader_max);
    rmr.set("writer_mean_passage", writer_mean);
    rmr.set("writer_max_passage", writer_max);
    return rmr;
}

/// "sim_perf" payload: simulated steps and the wall time they took.
inline json::Value sim_perf(std::uint64_t steps, double wall_ms) {
    json::Value perf = json::Value::object();
    perf.set("steps", steps);
    perf.set("wall_ms", wall_ms);
    perf.set("steps_per_sec",
             wall_ms > 0 ? static_cast<double>(steps) / (wall_ms / 1000.0)
                         : 0.0);
    return perf;
}

inline json::Value telemetry_to_json(const native::TelemetrySnapshot& snap) {
    json::Value obj = json::Value::object();
    for (std::uint32_t c = 0; c < native::kTelemetryCounters; ++c) {
        obj.set(native::to_string(static_cast<native::TelemetryCounter>(c)),
                snap.counters[c]);
    }
    return obj;
}

inline json::Value latency_to_json(const native::TelemetrySnapshot& snap) {
    json::Value obj = json::Value::object();
    for (std::uint32_t h = 0; h < native::kTelemetryHistos; ++h) {
        const auto histo = static_cast<native::TelemetryHisto>(h);
        if (snap.samples(histo) == 0) {
            continue;  // Quantiles of nothing are noise, not zeros.
        }
        json::Value q = json::Value::object();
        q.set("samples", snap.samples(histo));
        q.set("p50", snap.quantile_ns(histo, 0.50));
        q.set("p90", snap.quantile_ns(histo, 0.90));
        q.set("p99", snap.quantile_ns(histo, 0.99));
        q.set("max", snap.quantile_ns(histo, 1.0));
        obj.set(native::to_string(histo), std::move(q));
    }
    return obj;
}

/// Per-process whole-run RMR totals (Memory::proc_rmrs, surfaced as
/// ExperimentResult::proc_rmrs) -> a "proc_rmr" row object. `num_readers`
/// splits the pid space per the harness convention: pids below it are
/// readers, the rest writers. Sim-exact, like sim_rmr.
inline json::Value proc_rmr_to_json(const std::vector<std::uint64_t>& per_proc,
                                    std::uint32_t num_readers) {
    std::uint64_t rd_max = 0, wr_max = 0, rd_sum = 0, wr_sum = 0;
    std::uint64_t rd_cnt = 0, wr_cnt = 0;
    for (std::size_t p = 0; p < per_proc.size(); ++p) {
        if (p < num_readers) {
            rd_sum += per_proc[p];
            rd_max = std::max(rd_max, per_proc[p]);
            ++rd_cnt;
        } else {
            wr_sum += per_proc[p];
            wr_max = std::max(wr_max, per_proc[p]);
            ++wr_cnt;
        }
    }
    json::Value obj = json::Value::object();
    obj.set("reader_total_mean",
            rd_cnt > 0 ? static_cast<double>(rd_sum) /
                             static_cast<double>(rd_cnt)
                       : 0.0);
    obj.set("reader_total_max", rd_max);
    obj.set("writer_total_mean",
            wr_cnt > 0 ? static_cast<double>(wr_sum) /
                             static_cast<double>(wr_cnt)
                       : 0.0);
    obj.set("writer_total_max", wr_max);
    return obj;
}

/// Throws std::runtime_error describing the first schema violation.
inline void validate(const json::Value& doc) {
    const auto* schema = doc.find("schema");
    if (schema == nullptr ||
        schema->type() != json::Value::Type::String ||
        schema->as_string() != kSchemaName) {
        throw std::runtime_error("schema: missing or wrong \"schema\" tag");
    }
    const auto* bench = doc.find("bench");
    if (bench == nullptr || bench->type() != json::Value::Type::String) {
        throw std::runtime_error("schema: missing \"bench\" name");
    }
    const auto* results = doc.find("results");
    if (results == nullptr ||
        results->type() != json::Value::Type::Array) {
        throw std::runtime_error("schema: missing \"results\" array");
    }
    std::size_t i = 0;
    for (const auto& row : results->items()) {
        const std::string at = "schema: results[" + std::to_string(i) + "] ";
        ++i;
        if (row.type() != json::Value::Type::Object) {
            throw std::runtime_error(at + "is not an object");
        }
        const auto* lock = row.find("lock");
        if (lock == nullptr || lock->type() != json::Value::Type::String) {
            throw std::runtime_error(at + "lacks string \"lock\"");
        }
        for (const char* key : {"n", "f", "threads"}) {
            const auto* v = row.find(key);
            if (v == nullptr || !v->is_number()) {
                throw std::runtime_error(at + "lacks numeric \"" + key +
                                         "\"");
            }
        }
        // Optional row fields added by the parking/placement harness; when
        // present they must be well typed (a stringly-typed "true" would
        // silently fork the bench_diff row keyspace).
        const auto* workload = row.find("workload");
        if (workload != nullptr &&
            workload->type() != json::Value::Type::String) {
            throw std::runtime_error(at + "workload not a string");
        }
        for (const char* key : {"pinning", "parking"}) {
            const auto* v = row.find(key);
            if (v != nullptr && v->type() != json::Value::Type::Bool) {
                throw std::runtime_error(at + "\"" + key + "\" not a bool");
            }
        }
        for (const char* key : {"cpu_s", "think_us", "cs_us"}) {
            const auto* v = row.find(key);
            if (v != nullptr && !v->is_number()) {
                throw std::runtime_error(at + "\"" + key + "\" not numeric");
            }
        }
        const auto* tput = row.find("throughput_ops");
        const auto* rmr = row.find("sim_rmr");
        const auto* perf = row.find("sim_perf");
        const auto* expl = row.find("explore");
        const auto* dist = row.find("dist");
        const auto* amort = row.find("amortized");
        if (tput == nullptr && rmr == nullptr && perf == nullptr &&
            expl == nullptr && dist == nullptr && amort == nullptr) {
            throw std::runtime_error(
                at +
                "carries none of throughput_ops / sim_rmr / sim_perf / "
                "explore / dist / amortized");
        }
        if (tput != nullptr && !tput->is_number()) {
            throw std::runtime_error(at + "throughput_ops not numeric");
        }
        if (rmr != nullptr) {
            if (rmr->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "sim_rmr not an object");
            }
            for (const char* key :
                 {"reader_mean_passage", "writer_mean_passage"}) {
                const auto* v = rmr->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "sim_rmr lacks \"" +
                                             key + "\"");
                }
            }
        }
        if (perf != nullptr) {
            if (perf->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "sim_perf not an object");
            }
            for (const char* key : {"steps", "wall_ms", "steps_per_sec"}) {
                const auto* v = perf->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "sim_perf lacks \"" + key +
                                             "\"");
                }
            }
        }
        if (expl != nullptr) {
            if (expl->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "explore not an object");
            }
            // schedules_explored / violations / truncated_runs are
            // sim-exact (deterministic for a given engine); wall_ms and
            // schedules_per_sec are wall-clock. reduction_factor relates
            // the row to its full-enumeration sibling.
            for (const char* key :
                 {"schedules_explored", "violations", "truncated_runs",
                  "reduction_factor", "schedules_per_sec", "wall_ms"}) {
                const auto* v = expl->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "explore lacks \"" + key +
                                             "\"");
                }
            }
        }
        if (dist != nullptr) {
            if (dist->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "dist not an object");
            }
            // ops / network_rmrs_per_op / sessions / shards are exact on
            // the sim backend (deterministic grid rows); the latency and
            // throughput fields only appear on native loopback rows, where
            // they are wall-clock.
            for (const char* key :
                 {"ops", "network_rmrs_per_op", "sessions", "shards"}) {
                const auto* v = dist->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "dist lacks \"" + key +
                                             "\"");
                }
            }
            for (const char* key : {"ops_per_sec", "p50_acquire_us",
                                    "p99_acquire_us", "wall_ms"}) {
                const auto* v = dist->find(key);
                if (v != nullptr && !v->is_number()) {
                    throw std::runtime_error(at + "dist \"" + key +
                                             "\" not numeric");
                }
            }
        }
        if (amort != nullptr) {
            if (amort->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "amortized not an object");
            }
            // episodes / aborted / passages / writer_amortized_rmrs are
            // exact on deterministic (round-robin) grid rows; the optional
            // fields only appear on randomized-trial rows, where they
            // summarize the seeded trial set (still bit-identical for a
            // fixed base seed, but statistical in meaning).
            for (const char* key :
                 {"episodes", "aborted", "passages",
                  "writer_amortized_rmrs"}) {
                const auto* v = amort->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "amortized lacks \"" + key +
                                             "\"");
                }
            }
            for (const char* key :
                 {"abort_rmr_mean", "abort_rmr_max", "expected_rmr", "ci95",
                  "trials", "worst_case_rmr"}) {
                const auto* v = amort->find(key);
                if (v != nullptr && !v->is_number()) {
                    throw std::runtime_error(at + "amortized \"" + key +
                                             "\" not numeric");
                }
            }
        }
        // Optional per-process RMR breakdown; payload-like but never a
        // row's only payload (it always rides beside sim_rmr).
        const auto* prmr = row.find("proc_rmr");
        if (prmr != nullptr) {
            if (prmr->type() != json::Value::Type::Object) {
                throw std::runtime_error(at + "proc_rmr not an object");
            }
            for (const char* key :
                 {"reader_total_mean", "reader_total_max",
                  "writer_total_mean", "writer_total_max"}) {
                const auto* v = prmr->find(key);
                if (v == nullptr || !v->is_number()) {
                    throw std::runtime_error(at + "proc_rmr lacks \"" + key +
                                             "\"");
                }
            }
        }
    }
}

/// Validates, then writes atomically enough for our purposes (truncate +
/// full rewrite; benches run single-threaded).
inline void write_file(const std::string& path, const json::Value& doc) {
    validate(doc);
    std::ofstream os(path);
    if (!os) {
        throw std::runtime_error("cannot open '" + path + "' for writing");
    }
    os << doc.dump();
    if (!os) {
        throw std::runtime_error("short write to '" + path + "'");
    }
}

inline json::Value read_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        throw std::runtime_error("cannot open '" + path + "'");
    }
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return json::Value::parse(text);
}

}  // namespace rwr::harness::bench
