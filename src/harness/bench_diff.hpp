// Row-join + regression logic behind bench_compare, extracted so tests can
// drive it on in-memory documents (tests/test_bench_diff.cpp).
//
// diff() joins two rwr-bench-v1 documents on the bench name and the row
// key (bench_json.hpp RowKey: lock, protocol, n, m, f, threads, workload)
// and reports three things:
//   * regressions -- an exact count changed at all, in either direction
//     (sim_rmr means, explore.schedules_explored,
//     dist.network_rmrs_per_op, amortized.writer_amortized_rmrs and
//     .expected_rmr: deterministic, so any move is a protocol or engine
//     change), or a wall-clock rate dropped beyond its tolerance
//     (throughput_ops, sim_perf.steps_per_sec, explore.schedules_per_sec,
//     dist.ops_per_sec);
//   * missing    -- rows present in the baseline but absent from the new
//     run, and fields a baseline row has but its matched new row lacks. A
//     vanished row or field means the new binary silently stopped covering
//     something (a renamed lock, a dropped sweep cell, a dropped payload
//     field), which would otherwise let a regression hide by deleting it
//     -- so missing entries are a HARD comparison failure
//     (DiffReport::ok() is false), not an informational note. The
//     checked-in baselines are thereby the manifest of required rows and
//     fields. Fields under latency_ns are exempt: a native histogram with
//     no samples is left out of its row;
//   * added      -- rows only the new run has (informational: new coverage
//     is fine).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"

namespace rwr::harness::bench {

/// Tolerated fractional drop of throughput_ops. The exact counts (sim_rmr
/// means, explore schedule counts, dist network RMRs, amortized RMRs) have
/// no tolerance: any change fails.
inline constexpr double kMaxDrop = 0.10;
/// Rows where either run's wall_ms is below this floor are exempt from the
/// wall-clock gates (sub-floor cells measure jitter).
inline constexpr double kMinPerfMs = 5.0;

struct DiffOptions {
    /// Tolerated fractional drop of the wall-clock rates (sim_perf
    /// steps_per_sec, explore schedules_per_sec, dist ops_per_sec): noise,
    /// hence much wider than kMaxDrop.
    double max_perf_drop = 0.50;
};

struct DiffFlag {
    std::string key;
    std::string metric;
    double before = 0;
    double after = 0;
    /// Fractional worsening (> 0 is worse). For an exact count, the signed
    /// fractional move (the absolute move off a zero baseline).
    double change = 0;
    bool exact = false;  ///< An exact count that moved.
};

struct DiffReport {
    std::size_t joined = 0;
    std::vector<DiffFlag> regressions;
    /// Baseline rows the new run lacks ("<row key>"), and baseline fields
    /// a matched new row lacks ("<row key> <dotted field path>").
    std::vector<std::string> missing;
    std::vector<std::string> added;    ///< New rows the baseline lacks.

    /// Comparison passes only with zero regressions AND nothing missing.
    [[nodiscard]] bool ok() const {
        return regressions.empty() && missing.empty();
    }
};

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

inline std::map<std::string, const json::Value*> index_rows(
    const json::Value& doc) {
    const std::string name = doc.find("bench")->as_string();
    std::map<std::string, const json::Value*> idx;
    for (const auto& row : doc.find("results")->items()) {
        idx[row_key(name, row)] = &row;
    }
    return idx;
}

namespace detail {

/// A rate (higher is better) fails when it drops by more than max_frac.
inline void diff_rate(const std::string& key, const char* metric,
                      double before, double after, double max_frac,
                      std::vector<DiffFlag>* flags) {
    if (before <= 0) {
        return;  // No meaningful baseline.
    }
    const double frac = (before - after) / before;
    if (frac > max_frac) {
        flags->push_back({key, metric, before, after, frac});
    }
}

/// An exact count fails on any change, a decrease included: it is
/// deterministic, so a move means the protocol or the engine changed.
inline void diff_exact(const std::string& key, const char* metric,
                       double before, double after,
                       std::vector<DiffFlag>* flags) {
    if (after != before) {
        const double change =
            before == 0 ? after - before : (after - before) / before;
        flags->push_back({key, metric, before, after, change, true});
    }
}

/// Appends `prefix` + the dotted path of every field under `base` that
/// `now` lacks, descending into objects except latency_ns.
inline void missing_fields(const json::Value& base, const json::Value& now,
                           const std::string& prefix,
                           std::vector<std::string>* out) {
    for (const auto& [name, value] : base.members()) {
        const json::Value* mine = now.find(name);
        if (mine == nullptr) {
            out->push_back(prefix + name);
        } else if (value.type() == json::Value::Type::Object &&
                   name != "latency_ns") {
            missing_fields(value, *mine, prefix + name + ".", out);
        }
    }
}

}  // namespace detail

/// Both documents must already be validate()d.
inline DiffReport diff(const json::Value& oldd, const json::Value& newd,
                       const DiffOptions& opts) {
    const auto old_idx = index_rows(oldd);
    const auto new_idx = index_rows(newd);
    DiffReport rep;
    for (const auto& [key, old_row] : old_idx) {
        const auto it = new_idx.find(key);
        if (it == new_idx.end()) {
            rep.missing.push_back(key);
            continue;
        }
        ++rep.joined;
        const json::Value* new_row = it->second;
        detail::missing_fields(*old_row, *new_row, key + " ", &rep.missing);
        const json::Value* old_t = old_row->find("throughput_ops");
        const json::Value* new_t = new_row->find("throughput_ops");
        if (old_t != nullptr && new_t != nullptr) {
            detail::diff_rate(key, "throughput_ops", old_t->as_double(),
                              new_t->as_double(), kMaxDrop,
                              &rep.regressions);
        }
        const json::Value* old_r = old_row->find("sim_rmr");
        const json::Value* new_r = new_row->find("sim_rmr");
        if (old_r != nullptr && new_r != nullptr) {
            for (const char* m :
                 {"reader_mean_passage", "writer_mean_passage"}) {
                const json::Value* ov = old_r->find(m);
                const json::Value* nv = new_r->find(m);
                if (ov != nullptr && nv != nullptr) {
                    detail::diff_exact(key, m, ov->as_double(),
                                       nv->as_double(), &rep.regressions);
                }
            }
        }
        const json::Value* old_e = old_row->find("explore");
        const json::Value* new_e = new_row->find("explore");
        if (old_e != nullptr && new_e != nullptr) {
            // The schedule count is deterministic for a given engine, so a
            // move means the reduction or the tree changed -- exact, like
            // an RMR mean. Throughput is wall-clock, gated with the wide
            // perf tolerance over the same wall floor as sim_perf.
            const json::Value* oc = old_e->find("schedules_explored");
            const json::Value* nc = new_e->find("schedules_explored");
            if (oc != nullptr && nc != nullptr) {
                detail::diff_exact(key, "explore.schedules_explored",
                                   oc->as_double(), nc->as_double(),
                                   &rep.regressions);
            }
            const json::Value* ov = old_e->find("schedules_per_sec");
            const json::Value* nv = new_e->find("schedules_per_sec");
            const json::Value* ow = old_e->find("wall_ms");
            const json::Value* nw = new_e->find("wall_ms");
            const bool measurable = ow != nullptr && nw != nullptr &&
                                    ow->as_double() >= kMinPerfMs &&
                                    nw->as_double() >= kMinPerfMs;
            if (ov != nullptr && nv != nullptr && measurable) {
                detail::diff_rate(key, "explore.schedules_per_sec",
                                  ov->as_double(), nv->as_double(),
                                  opts.max_perf_drop, &rep.regressions);
            }
        }
        const json::Value* old_d = old_row->find("dist");
        const json::Value* new_d = new_row->find("dist");
        if (old_d != nullptr && new_d != nullptr) {
            // network_rmrs_per_op is exact on the sim backend (the grid is
            // deterministic), so any move is a protocol change. ops_per_sec
            // only exists on native loopback rows and is wall-clock: wide
            // gate over the dist wall_ms floor, mirroring sim_perf.
            const json::Value* on = old_d->find("network_rmrs_per_op");
            const json::Value* nn = new_d->find("network_rmrs_per_op");
            if (on != nullptr && nn != nullptr) {
                detail::diff_exact(key, "dist.network_rmrs_per_op",
                                   on->as_double(), nn->as_double(),
                                   &rep.regressions);
            }
            const json::Value* ov = old_d->find("ops_per_sec");
            const json::Value* nv = new_d->find("ops_per_sec");
            const json::Value* ow = old_d->find("wall_ms");
            const json::Value* nw = new_d->find("wall_ms");
            const bool measurable = ow != nullptr && nw != nullptr &&
                                    ow->as_double() >= kMinPerfMs &&
                                    nw->as_double() >= kMinPerfMs;
            if (ov != nullptr && nv != nullptr && measurable) {
                detail::diff_rate(key, "dist.ops_per_sec", ov->as_double(),
                                  nv->as_double(), opts.max_perf_drop,
                                  &rep.regressions);
            }
        }
        const json::Value* old_a = old_row->find("amortized");
        const json::Value* new_a = new_row->find("amortized");
        if (old_a != nullptr && new_a != nullptr) {
            // writer_amortized_rmrs is exact on deterministic grid rows and
            // seed-deterministic on randomized ones; expected_rmr is the
            // trial-set mean under a fixed base seed. Both are exact.
            for (const char* m : {"writer_amortized_rmrs", "expected_rmr"}) {
                const json::Value* ov = old_a->find(m);
                const json::Value* nv = new_a->find(m);
                if (ov != nullptr && nv != nullptr) {
                    detail::diff_exact(key, m, ov->as_double(),
                                       nv->as_double(), &rep.regressions);
                }
            }
        }
        const json::Value* old_p = old_row->find("sim_perf");
        const json::Value* new_p = new_row->find("sim_perf");
        if (old_p != nullptr && new_p != nullptr) {
            const json::Value* ov = old_p->find("steps_per_sec");
            const json::Value* nv = new_p->find("steps_per_sec");
            const json::Value* ow = old_p->find("wall_ms");
            const json::Value* nw = new_p->find("wall_ms");
            // Sub-floor cells finish in fractions of a millisecond; their
            // steps_per_sec is dominated by scheduling noise, not engine
            // speed, so only rows where both runs spent real time qualify.
            const bool measurable = ow != nullptr && nw != nullptr &&
                                    ow->as_double() >= kMinPerfMs &&
                                    nw->as_double() >= kMinPerfMs;
            if (ov != nullptr && nv != nullptr && measurable) {
                detail::diff_rate(key, "sim_perf.steps_per_sec",
                                  ov->as_double(), nv->as_double(),
                                  opts.max_perf_drop, &rep.regressions);
            }
        }
    }
    for (const auto& [key, row] : new_idx) {
        if (old_idx.find(key) == old_idx.end()) {
            rep.added.push_back(key);
        }
        (void)row;
    }
    return rep;
}

}  // namespace rwr::harness::bench
