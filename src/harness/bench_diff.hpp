// Row-join + regression logic behind bench_compare, extracted so tests can
// drive it on in-memory documents (tests/test_bench_diff.cpp).
//
// diff() joins two rwr-bench-v1 documents on the bench name and the row
// key (bench_json.hpp row_key) and reports three things:
//   * regressions -- a field whose gate fails. Each field's gate is its
//     line in bench_json.hpp kFields: an Exact field fails on any change,
//     in either direction; a Rate fails on a drop past its tolerance; an
//     Info field is not compared;
//   * missing    -- rows present in the baseline but absent from the new
//     run, and fields a baseline row has but its matched new row lacks. A
//     vanished row or field means the new binary silently stopped covering
//     something (a renamed lock, a dropped sweep cell, a dropped payload
//     field), which would otherwise let a regression hide by deleting it
//     -- so missing entries are a HARD comparison failure
//     (DiffReport::ok() is false), not an informational note. The
//     checked-in baselines are thereby the manifest of required rows and
//     fields. Members of a Sparse object (latency_ns) are exempt: a
//     native histogram with no samples is left out of its row;
//   * added      -- rows only the new run has (informational: new coverage
//     is fine).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"

namespace rwr::harness::bench {

/// Tolerated fractional drop of a top-level Rate (throughput_ops).
inline constexpr double kMaxDrop = 0.10;
/// Rows where either run's time (a group's cpu_ms where it records one,
/// else its wall_ms) is below this floor are exempt from the group's Rate
/// gates (sub-floor cells measure jitter).
inline constexpr double kMinPerfMs = 5.0;

struct DiffOptions {
    /// Tolerated fractional drop of a Rate inside a group (kFields): a
    /// wall-clock rate is noise, hence much wider than kMaxDrop.
    double max_perf_drop = 0.50;
};

struct DiffFlag {
    std::string key;
    std::string metric;  ///< The field's kFields path, "group.name".
    double before = 0;
    double after = 0;
    /// Fractional worsening (> 0 is worse). For an exact count, the signed
    /// fractional move (the absolute move off a zero baseline).
    double change = 0;
    bool exact = false;  ///< An Exact field that changed.
    /// A changed string or Bool field's two values (before/after stay 0).
    std::string before_text = {};
    std::string after_text = {};
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
inline void diff_rate(const std::string& key, const std::string& metric,
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

/// An exact field fails on any change, a decrease included: it is
/// deterministic, so a move means the protocol or the engine changed.
inline void diff_exact(const std::string& key, const std::string& metric,
                       const json::Value& before, const json::Value& after,
                       std::vector<DiffFlag>* flags) {
    if (!before.is_number()) {  // A string or a Bool: compare the text.
        const auto text = [](const json::Value& v) -> std::string {
            if (v.type() == json::Value::Type::Bool) {
                return v.as_bool() ? "true" : "false";
            }
            return v.as_string();
        };
        if (text(after) != text(before)) {
            flags->push_back(
                {key, metric, 0, 0, 0, true, text(before), text(after)});
        }
        return;
    }
    const double b = before.as_double();
    const double a = after.as_double();
    if (a != b) {
        flags->push_back({key, metric, b, a, b == 0 ? a - b : (a - b) / b,
                          true});
    }
}

/// The time a group's rate is taken over: its thread CPU time where it
/// records one (sim_perf), else its wall time. Null when it has neither.
inline const json::Value* group_ms(const json::Value& group) {
    const json::Value* cpu = group.find("cpu_ms");
    return cpu != nullptr ? cpu : group.find("wall_ms");
}

/// Whether both runs spent at least kMinPerfMs in a group: sub-floor
/// cells finish in fractions of a millisecond, and their rates measure
/// scheduling noise, not engine speed.
inline bool measurable(const json::Value& base, const json::Value& now) {
    const json::Value* ob = group_ms(base);
    const json::Value* nb = group_ms(now);
    return ob != nullptr && nb != nullptr && ob->as_double() >= kMinPerfMs &&
           nb->as_double() >= kMinPerfMs;
}

/// Compares each member of a baseline row (group "") or of one of its
/// groups with the joined run's `now`, by the member's gate.
inline void diff_object(const std::string& key, const std::string& group,
                        const json::Value& base, const json::Value& now,
                        const DiffOptions& opts, DiffReport* rep) {
    for (const auto& [name, before] : base.members()) {
        const std::string path = group.empty() ? name : group + "." + name;
        const json::Value* after = now.find(name);
        if (after == nullptr) {
            rep->missing.push_back(key + " " + path);
            continue;
        }
        // nullptr: a member of an Open object, which has no gate.
        const Field* field = find_field(path);
        if (field == nullptr || field->type == Type::Sparse) {
            continue;
        }
        if (field->type == Type::Group || field->type == Type::Open) {
            diff_object(key, path, before, *after, opts, rep);
        } else if (field->gate == Gate::Exact) {
            diff_exact(key, path, before, *after, &rep->regressions);
        } else if (field->gate == Gate::Rate && group.empty()) {
            diff_rate(key, path, before.as_double(), after->as_double(),
                      kMaxDrop, &rep->regressions);
        } else if (field->gate == Gate::Rate && measurable(base, now)) {
            diff_rate(key, path, before.as_double(), after->as_double(),
                      opts.max_perf_drop, &rep->regressions);
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
        detail::diff_object(key, "", *old_row, *it->second, opts, &rep);
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
