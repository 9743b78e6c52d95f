// The "rwr-bench-v1" JSON schema: one document per bench binary run, a
// flat results array so bench_compare can join rows across runs.
//
//   { "schema": "rwr-bench-v1", "bench": "<name>", "results": [ <row>, ... ] }
//
// kFields below is the schema: every field a row may carry, with its type,
// whether it is required, whether it is a payload, and its gate in
// bench_compare. validate() and diff() (bench_diff.hpp) are loops over it,
// so a new field is one table line. validate() rejects a field with no
// line, and every writer validates its document (write_file), so such a
// field fails its own bench run instead of shipping ungated.
//
// Every writer starts a row with key_row(): the row key (lock, protocol?,
// n, m, f, threads, workload?) that bench_compare joins runs on, defined
// once below. A row must carry at least one payload field, and no two
// rows of a document may share a key. `bench_compare --check` runs
// validate() too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
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
/// (row_key()). Every row writer starts from key_row().
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

/// A row's join key: the bench name and each kRowKeyFields value behind
/// its tag, "-" for an absent field.
inline std::string row_key(const std::string& bench_name,
                           const json::Value& row) {
    std::string key = bench_name;
    for (const auto& [field, tag] : kRowKeyFields) {
        const json::Value* v = row.find(field);
        key += "/";
        key += tag;
        if (v == nullptr) {
            key += "-";
        } else if (v->type() == json::Value::Type::String) {
            key += v->as_string();
        } else {
            key += std::to_string(v->as_uint());
        }
    }
    return key;
}

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

/// A field's JSON type. A Group is an object of the "group.name" fields
/// of the table; Open and Sparse objects hold members it does not name.
/// An Open object's members may not vanish from a baseline's row; a
/// Sparse object's come and go (an empty histogram is left out).
enum class Type : std::uint8_t { Number, String, Bool, Group, Open, Sparse };

/// What bench_compare does with a field's value:
///   Exact -- deterministic: any change fails, in either direction;
///   Rate  -- wall-clock, higher is better: at the top level a drop past
///            kMaxDrop fails; inside a group a drop past --max-perf-drop
///            fails when both runs spent kMinPerfMs in its wall_ms;
///   Info  -- presence only: the value is not compared.
enum class Gate : std::uint8_t { Exact, Rate, Info };

struct Field {
    std::string_view path;  ///< "name", or "group.name" inside a Group.
    Type type;
    bool required;  ///< In every row, or wherever its group is present.
    bool payload;   ///< A row must carry at least one payload field.
    Gate gate;
};

namespace table {
using enum Type;
using enum Gate;
// clang-format off
inline constexpr Field kFields[] = {
    // path                                type    required payload gate
    // The row key; joined rows agree on it.
    {"lock",                               String, true,  false, Exact},
    {"protocol",                           String, false, false, Exact},
    {"n",                                  Number, true,  false, Exact},
    {"m",                                  Number, false, false, Exact},
    {"f",                                  Number, true,  false, Exact},
    {"threads",                            Number, true,  false, Exact},
    {"workload",                           String, false, false, Exact},
    // Native rows (native/perf.hpp): the run's setup and wall-clock.
    {"duration_ms",                        Number, false, false, Info},
    {"warmup_ms",                          Number, false, false, Info},
    {"think_us",                           Number, false, false, Info},
    {"cs_us",                              Number, false, false, Info},
    {"pinning",                            Bool,   false, false, Info},
    {"parking",                            Bool,   false, false, Info},
    {"reader_ops",                         Number, false, false, Info},
    {"writer_ops",                         Number, false, false, Info},
    {"throughput_ops",                     Number, false, true,  Rate},
    {"cpu_s",                              Number, false, false, Info},
    {"latency_ns",                         Sparse, false, false, Info},
    {"telemetry",                          Open,   false, false, Info},
    // Simulated RMRs per passage and per process, exact.
    {"sim_rmr",                            Group,  false, true,  Info},
    {"sim_rmr.reader_mean_passage",        Number, true,  false, Exact},
    {"sim_rmr.reader_max_passage",         Number, false, false, Exact},
    {"sim_rmr.writer_mean_passage",        Number, true,  false, Exact},
    {"sim_rmr.writer_max_passage",         Number, false, false, Exact},
    {"proc_rmr",                           Group,  false, false, Info},
    {"proc_rmr.reader_total_mean",         Number, true,  false, Exact},
    {"proc_rmr.reader_total_max",          Number, true,  false, Exact},
    {"proc_rmr.writer_total_mean",         Number, true,  false, Exact},
    {"proc_rmr.writer_total_max",          Number, true,  false, Exact},
    // Simulator speed: exact steps, wall-clock rate.
    {"sim_perf",                           Group,  false, true,  Info},
    {"sim_perf.steps",                     Number, true,  false, Exact},
    {"sim_perf.wall_ms",                   Number, true,  false, Info},
    {"sim_perf.steps_per_sec",             Number, true,  false, Rate},
    // Schedule exploration: exact verdicts and counts, wall-clock rate.
    {"explore",                            Group,  false, true,  Info},
    {"explore.schedules_explored",         Number, true,  false, Exact},
    {"explore.violations",                 Number, true,  false, Exact},
    {"explore.truncated_runs",             Number, true,  false, Exact},
    {"explore.reduction_factor",           Number, true,  false, Exact},
    {"explore.schedules_per_sec",          Number, true,  false, Rate},
    {"explore.wall_ms",                    Number, true,  false, Info},
    // The lock service: exact on the sim backend; the optional fields are
    // native loopback wall-clock.
    {"dist",                               Group,  false, true,  Info},
    {"dist.ops",                           Number, true,  false, Exact},
    {"dist.network_rmrs_per_op",           Number, true,  false, Exact},
    {"dist.sessions",                      Number, true,  false, Info},
    {"dist.shards",                        Number, true,  false, Info},
    {"dist.ops_per_sec",                   Number, false, false, Rate},
    {"dist.p50_acquire_us",                Number, false, false, Info},
    {"dist.p99_acquire_us",                Number, false, false, Info},
    {"dist.wall_ms",                       Number, false, false, Info},
    // Abortable mutexes: exact on round-robin rows, seeded on randomized
    // trial rows.
    {"amortized",                          Group,  false, true,  Info},
    {"amortized.episodes",                 Number, true,  false, Exact},
    {"amortized.aborted",                  Number, true,  false, Exact},
    {"amortized.passages",                 Number, true,  false, Exact},
    {"amortized.writer_amortized_rmrs",    Number, true,  false, Exact},
    {"amortized.abort_rmr_mean",           Number, false, false, Exact},
    {"amortized.abort_rmr_max",            Number, false, false, Exact},
    {"amortized.expected_rmr",             Number, false, false, Exact},
    {"amortized.ci95",                     Number, false, false, Info},
    {"amortized.trials",                   Number, false, false, Info},
    {"amortized.worst_case_rmr",           Number, false, false, Exact},
    // Recoverable locks (bench_recoverable): crash recovery costs and the
    // worst crash placement, exact.
    {"recover",                            Group,  false, false, Info},
    {"recover.restarts",                   Number, false, false, Exact},
    {"recover.max_recovery_steps",         Number, false, false, Exact},
    {"recover.max_chain_recovery_steps",   Number, false, false, Exact},
    {"recover.reader_recover_mean",        Number, false, false, Exact},
    {"recover.writer_recover_mean",        Number, false, false, Exact},
    {"recover.recovery_episodes",          Number, false, false, Exact},
    {"recover.recovery_mean_rmrs",         Number, false, false, Exact},
    {"recover.recovery_max_rmrs",          Number, false, false, Exact},
    {"recover.victim",                     Number, false, false, Exact},
    {"recover.section",                    String, false, false, Exact},
    {"recover.step_in_section",            Number, false, false, Exact},
    // The crash adversary's worst schedule, exact.
    {"adversary",                          Group,  false, false, Info},
    {"adversary.candidates",               Number, false, false, Exact},
    {"adversary.discarded_unfired",        Number, false, false, Exact},
    {"adversary.worst_family",             String, false, false, Exact},
    {"adversary.worst_schedule",           String, false, false, Exact},
    {"adversary.worst_score",              Number, false, false, Exact},
    {"adversary.passage_rmrs_mean",        Number, false, false, Exact},
    {"adversary.passage_rmrs_max",         Number, false, false, Exact},
    {"adversary.recovery_rmrs_mean",       Number, false, false, Exact},
    {"adversary.recovery_rmrs_max",        Number, false, false, Exact},
    {"adversary.total_restarts",           Number, false, false, Exact},
};
// clang-format on
}  // namespace table
using table::kFields;

// diff() compares numbers and strings only, and a rate is a number.
static_assert(std::ranges::all_of(kFields, [](const Field& f) {
    return f.gate == Gate::Info || f.type == Type::Number ||
           (f.type == Type::String && f.gate == Gate::Exact);
}));

/// The table line for `path` ("name" or "group.name"), or nullptr.
constexpr const Field* find_field(std::string_view path) {
    const Field* it = std::ranges::find(kFields, path, &Field::path);
    return it == std::end(kFields) ? nullptr : it;
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

namespace detail {

inline bool has_type(const json::Value& v, Type type) {
    switch (type) {
        case Type::Number: return v.is_number();
        case Type::String: return v.type() == json::Value::Type::String;
        case Type::Bool: return v.type() == json::Value::Type::Bool;
        default: return v.type() == json::Value::Type::Object;
    }
}

/// Checks the members of a row (group "") or of one of its groups against
/// kFields; sets *payload when one of them is a payload.
inline void validate_object(const json::Value& obj, const std::string& group,
                            const std::string& at, bool* payload) {
    const std::string prefix = group.empty() ? "" : group + ".";
    for (const auto& [name, value] : obj.members()) {
        const Field* field = find_field(prefix + name);
        if (field == nullptr) {
            throw std::runtime_error(at + "has unknown field \"" + prefix +
                                     name + "\"");
        }
        if (!has_type(value, field->type)) {
            throw std::runtime_error(at + "\"" + prefix + name +
                                     "\" has the wrong type");
        }
        *payload = *payload || field->payload;
        if (field->type == Type::Group) {
            validate_object(value, prefix + name, at, payload);
        }
    }
    for (const Field& field : kFields) {
        if (field.required && field.path.starts_with(prefix) &&
            field.path.find('.', prefix.size()) == std::string_view::npos &&
            obj.find(std::string(field.path.substr(prefix.size()))) ==
                nullptr) {
            throw std::runtime_error(at + "lacks \"" +
                                     std::string(field.path) + "\"");
        }
    }
}

}  // namespace detail

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
    std::map<std::string, std::size_t> keys;
    for (std::size_t i = 0; i < results->items().size(); ++i) {
        const json::Value& row = results->items()[i];
        const std::string at = "schema: results[" + std::to_string(i) + "] ";
        if (row.type() != json::Value::Type::Object) {
            throw std::runtime_error(at + "is not an object");
        }
        bool payload = false;
        detail::validate_object(row, "", at, &payload);
        if (!payload) {
            throw std::runtime_error(at + "carries no payload field");
        }
        const auto [it, fresh] =
            keys.emplace(row_key(bench->as_string(), row), i);
        if (!fresh) {
            throw std::runtime_error(at + "repeats the row key " + it->first +
                                     " of results[" +
                                     std::to_string(it->second) + "]");
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
