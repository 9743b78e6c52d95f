// Unit tests for the bench_compare join/diff engine (harness/bench_diff.hpp)
// on in-memory documents. The load-bearing behaviour: rows present in the
// baseline but absent from the new run, and fields a baseline row has but
// its matched new row lacks, are a HARD failure (a vanished row or field
// would let a regression hide by deleting it), while rows only the new run
// has are informational; and an exact count fails on any change, in
// either direction.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "harness/bench_diff.hpp"
#include "harness/bench_json.hpp"

namespace rwr::harness {
namespace {

using bench::DiffOptions;
using bench::DiffReport;

json::Value make_row(const std::string& lock, std::uint64_t n,
                     double reader_mean, double writer_mean,
                     double steps_per_sec = 1e6, double wall_ms = 100.0) {
    auto row = json::Value::object();
    row.set("lock", lock);
    row.set("protocol", "write-back");
    row.set("n", n);
    row.set("m", std::uint64_t{1});
    row.set("f", std::uint64_t{1});
    row.set("threads", n + 1);
    auto rmr = json::Value::object();
    rmr.set("reader_mean_passage", reader_mean);
    rmr.set("reader_max_passage", std::uint64_t{20});
    rmr.set("writer_mean_passage", writer_mean);
    rmr.set("writer_max_passage", std::uint64_t{12});
    row.set("sim_rmr", std::move(rmr));
    auto perf = json::Value::object();
    perf.set("steps", std::uint64_t{1000});
    perf.set("wall_ms", wall_ms);
    perf.set("steps_per_sec", steps_per_sec);
    row.set("sim_perf", std::move(perf));
    return row;
}

json::Value* results_of(json::Value& doc) {
    // make_doc pre-creates "results"; set() replaces it and returns a
    // mutable reference to the stored value.
    return &doc.set("results", json::Value::array());
}

TEST(BenchDiff, IdenticalDocsPass) {
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 10.0, 5.0));
    results_of(newd)->push_back(make_row("af", 8, 10.0, 5.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.joined, 1u);
    EXPECT_TRUE(rep.regressions.empty());
    EXPECT_TRUE(rep.missing.empty());
    EXPECT_TRUE(rep.added.empty());
}

TEST(BenchDiff, MissingBaselineRowIsAHardFailure) {
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    auto* old_rows = results_of(oldd);
    old_rows->push_back(make_row("af", 8, 10.0, 5.0));
    old_rows->push_back(make_row("af", 16, 12.0, 5.0));
    // The new run silently dropped the n=16 cell; the surviving row
    // matching exactly must not mask the missing one.
    results_of(newd)->push_back(make_row("af", 8, 10.0, 5.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.joined, 1u);
    EXPECT_TRUE(rep.regressions.empty());
    ASSERT_EQ(rep.missing.size(), 1u);
    // The message names the vanished row precisely.
    EXPECT_EQ(rep.missing[0], "t/af/write-back/n16/m1/f1/t17/w-");
}

TEST(BenchDiff, MissingBaselineFieldIsAHardFailure) {
    // The baseline is the manifest of required fields: a matched row that
    // lost one (here a max the baseline carries) fails like a lost row.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 10.0, 5.0));
    auto means = json::Value::object();
    means.set("reader_mean_passage", 10.0);
    means.set("writer_mean_passage", 5.0);
    auto row = make_row("af", 8, 10.0, 5.0);
    row.set("sim_rmr", std::move(means));
    results_of(newd)->push_back(std::move(row));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.joined, 1u);
    EXPECT_TRUE(rep.regressions.empty());
    EXPECT_EQ(rep.missing,
              (std::vector<std::string>{
                  "t/af/write-back/n8/m1/f1/t9/w- "
                  "sim_rmr.reader_max_passage",
                  "t/af/write-back/n8/m1/f1/t9/w- "
                  "sim_rmr.writer_max_passage"}));
}

TEST(BenchDiff, MissingLatencyHistogramIsNotAFailure) {
    // A native histogram with no samples is left out of its row, so the
    // histograms under latency_ns are exempt from the field manifest.
    auto histo = json::Value::object();
    histo.set("samples", std::uint64_t{100});
    histo.set("p50", std::uint64_t{40});
    auto with = json::Value::object();
    with.set("writer_acquire", std::move(histo));
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    auto old_row = make_row("af", 8, 10.0, 5.0);
    old_row.set("latency_ns", std::move(with));
    results_of(oldd)->push_back(std::move(old_row));
    auto new_row = make_row("af", 8, 10.0, 5.0);
    new_row.set("latency_ns", json::Value::object());
    results_of(newd)->push_back(std::move(new_row));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_TRUE(rep.ok());
    EXPECT_TRUE(rep.missing.empty());
}

TEST(BenchDiff, AddedRowsAreInformational) {
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 10.0, 5.0));
    auto* new_rows = results_of(newd);
    new_rows->push_back(make_row("af", 8, 10.0, 5.0));
    new_rows->push_back(make_row("af", 16, 12.0, 5.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_TRUE(rep.ok());  // New coverage is fine.
    ASSERT_EQ(rep.added.size(), 1u);
    EXPECT_EQ(rep.added[0], "t/af/write-back/n16/m1/f1/t17/w-");
}

TEST(BenchDiff, SimRmrIncreaseBeyondToleranceRegresses) {
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 10.0, 5.0));
    results_of(newd)->push_back(make_row("af", 8, 11.5, 5.0));  // +15%
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "sim_rmr.reader_mean_passage");
    EXPECT_DOUBLE_EQ(rep.regressions[0].before, 10.0);
    EXPECT_DOUBLE_EQ(rep.regressions[0].after, 11.5);
    EXPECT_GT(rep.regressions[0].change, 0.10);
}

TEST(BenchDiff, SimRmrDecreaseFailsTheExactGate) {
    // RMR means are deterministic: a drop is a protocol change too, and
    // the baseline must be regenerated on purpose, not drift.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 10.0, 5.0));
    results_of(newd)->push_back(make_row("af", 8, 5.0, 2.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.regressions.size(), 2u);
    EXPECT_EQ(rep.regressions[0].metric, "sim_rmr.reader_mean_passage");
    EXPECT_TRUE(rep.regressions[0].exact);
    EXPECT_DOUBLE_EQ(rep.regressions[0].change, -0.5);
    EXPECT_EQ(rep.regressions[1].metric, "sim_rmr.writer_mean_passage");
}

TEST(BenchDiff, ExactCountMovingOffZeroFails) {
    // A zero baseline has no fraction to compare against, but it is still
    // an exact count: 0 -> 0.5 must fail, 0 -> 0 must pass.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_row("af", 8, 0.0, 5.0));
    results_of(newd)->push_back(make_row("af", 8, 0.5, 5.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "sim_rmr.reader_mean_passage");
    EXPECT_DOUBLE_EQ(rep.regressions[0].change, 0.5);
    EXPECT_TRUE(bench::diff(oldd, oldd, DiffOptions{}).ok());
}

TEST(BenchDiff, PerfDropGatedByWallClockFloor) {
    // steps_per_sec halves in both rows, but only the row where both runs
    // spent >= min_perf_ms of wall time may flag: sub-floor cells measure
    // scheduler jitter, not engine speed.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    auto* old_rows = results_of(oldd);
    auto* new_rows = results_of(newd);
    old_rows->push_back(make_row("af", 8, 10.0, 5.0, 1e6, /*wall_ms=*/100.0));
    new_rows->push_back(make_row("af", 8, 10.0, 5.0, 4e5, /*wall_ms=*/100.0));
    old_rows->push_back(make_row("af", 16, 10.0, 5.0, 1e6, /*wall_ms=*/0.5));
    new_rows->push_back(make_row("af", 16, 10.0, 5.0, 4e5, /*wall_ms=*/0.5));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "sim_perf.steps_per_sec");
    EXPECT_EQ(rep.regressions[0].key, "t/af/write-back/n8/m1/f1/t9/w-");
}

json::Value make_dist_row(std::uint64_t sessions, double rmrs_per_op,
                          double ops_per_sec, double wall_ms) {
    auto row = json::Value::object();
    row.set("lock", "e17-loopback-homed");
    row.set("protocol", "loopback");
    row.set("n", sessions);
    row.set("m", std::uint64_t{8});
    row.set("f", std::uint64_t{32});
    row.set("threads", std::uint64_t{8});
    row.set("workload", "r90");
    auto d = json::Value::object();
    d.set("ops", std::uint64_t{1000000});
    d.set("network_rmrs_per_op", rmrs_per_op);
    d.set("sessions", sessions);
    d.set("shards", std::uint64_t{8});
    d.set("ops_per_sec", ops_per_sec);
    d.set("wall_ms", wall_ms);
    row.set("dist", std::move(d));
    return row;
}

TEST(BenchDiff, DistNetworkRmrIncreaseRegresses) {
    // The RMR count is deterministic on the sim backend, so it gets the
    // exact gate: a +15% bump must flag.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_dist_row(1024, 16.0, 1e6, 500.0));
    results_of(newd)->push_back(make_dist_row(1024, 18.4, 1e6, 500.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "dist.network_rmrs_per_op");
    // So must a decrease: any move of an exact count is a protocol change.
    auto lower = bench::make_doc("t");
    results_of(lower)->push_back(make_dist_row(1024, 12.0, 1e6, 500.0));
    EXPECT_FALSE(bench::diff(oldd, lower, DiffOptions{}).ok());
}

TEST(BenchDiff, DistSubPercentProtocolMoveFails) {
    // The move a one-RMR change to the reader back-out makes to a
    // BENCH_dist.json smoke row (+0.33%): small, and still a protocol
    // change the gate must report.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    results_of(oldd)->push_back(make_dist_row(32, 19.1458333333, 0, 0));
    results_of(newd)->push_back(make_dist_row(32, 19.2083333333, 0, 0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "dist.network_rmrs_per_op");
    EXPECT_TRUE(rep.regressions[0].exact);
    EXPECT_DOUBLE_EQ(rep.regressions[0].before, 19.1458333333);
    EXPECT_DOUBLE_EQ(rep.regressions[0].after, 19.2083333333);
}

TEST(BenchDiff, DistThroughputDropGatedByWallClockFloor) {
    // ops_per_sec halves in both rows; only the cell whose wall time
    // clears min_perf_ms in both runs may flag.
    auto oldd = bench::make_doc("t");
    auto newd = bench::make_doc("t");
    auto* old_rows = results_of(oldd);
    auto* new_rows = results_of(newd);
    old_rows->push_back(make_dist_row(1024, 16.0, 2e6, 500.0));
    new_rows->push_back(make_dist_row(1024, 16.0, 8e5, 500.0));
    old_rows->push_back(make_dist_row(64, 16.0, 2e6, 0.5));
    new_rows->push_back(make_dist_row(64, 16.0, 8e5, 0.5));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "dist.ops_per_sec");
    EXPECT_EQ(rep.regressions[0].key,
              "t/e17-loopback-homed/loopback/n1024/m8/f32/t8/wr90");
}

json::Value make_amortized_row(double writer_amortized, double expected,
                               double ci95 = 0.5) {
    auto row = json::Value::object();
    row.set("lock", "jj-amortized");
    row.set("protocol", "write-back");
    row.set("n", std::uint64_t{0});
    row.set("m", std::uint64_t{8});
    row.set("f", std::uint64_t{1});
    row.set("threads", std::uint64_t{1});
    row.set("workload", "ab50");
    auto a = json::Value::object();
    a.set("episodes", std::uint64_t{96});
    a.set("aborted", std::uint64_t{32});
    a.set("passages", std::uint64_t{64});
    a.set("writer_amortized_rmrs", writer_amortized);
    a.set("expected_rmr", expected);
    a.set("ci95", ci95);
    a.set("trials", std::uint64_t{9});
    row.set("amortized", std::move(a));
    return row;
}

TEST(BenchDiff, AmortizedRmrIncreaseBeyondToleranceRegresses) {
    auto oldd = bench::make_doc("abortable");
    auto newd = bench::make_doc("abortable");
    results_of(oldd)->push_back(make_amortized_row(10.0, 9.0));
    // A crafted 2x regression on both amortized metrics must fire the gate.
    results_of(newd)->push_back(make_amortized_row(20.0, 18.0));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.regressions.size(), 2u);
    EXPECT_EQ(rep.regressions[0].metric, "amortized.writer_amortized_rmrs");
    EXPECT_DOUBLE_EQ(rep.regressions[0].before, 10.0);
    EXPECT_DOUBLE_EQ(rep.regressions[0].after, 20.0);
    EXPECT_DOUBLE_EQ(rep.regressions[0].change, 1.0);
    EXPECT_EQ(rep.regressions[1].metric, "amortized.expected_rmr");
}

TEST(BenchDiff, AmortizedAnyChangeFailsButCi95IsNotGated) {
    auto oldd = bench::make_doc("abortable");
    auto newd = bench::make_doc("abortable");
    results_of(oldd)->push_back(make_amortized_row(10.0, 9.0));
    // +5% amortized, -10% expectation: both exact (the trials are
    // seeded), so both fail.
    results_of(newd)->push_back(make_amortized_row(10.5, 8.1));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.joined, 1u);
    ASSERT_EQ(rep.regressions.size(), 2u);
    EXPECT_EQ(rep.regressions[0].metric, "amortized.writer_amortized_rmrs");
    EXPECT_EQ(rep.regressions[1].metric, "amortized.expected_rmr");
    // ci95/trials are descriptive, not gated.
    auto wider = bench::make_doc("abortable");
    results_of(wider)->push_back(make_amortized_row(10.0, 9.0, /*ci95=*/2.0));
    EXPECT_TRUE(bench::diff(oldd, wider, DiffOptions{}).ok());
}

TEST(BenchDiff, RowKeyUsesDashForAbsentFields) {
    auto row = json::Value::object();
    row.set("lock", "native");
    row.set("n", std::uint64_t{4});
    row.set("f", std::uint64_t{1});
    row.set("threads", std::uint64_t{4});
    row.set("throughput_ops", 1e6);
    EXPECT_EQ(bench::row_key("b", row), "b/native/-/n4/m-/f1/t4/w-");
}

TEST(BenchDiff, WorkloadIsPartOfTheRowKey) {
    // An oversubscribed row and the plain row of the same config must not
    // join against each other -- they measure different workloads.
    auto plain = make_row("af", 8, 10.0, 5.0);
    auto oversub = make_row("af", 8, 10.0, 5.0);
    oversub.set("workload", "oversub");
    EXPECT_NE(bench::row_key("t", plain), bench::row_key("t", oversub));
    EXPECT_EQ(bench::row_key("t", oversub),
              "t/af/write-back/n8/m1/f1/t9/woversub");
}

TEST(BenchDiff, ChangedStringFieldReportsBothValues) {
    // A crash placement is exact like a count: a worst case found in
    // another section is a different result.
    auto row = make_row("rjjj", 2, 10.0, 5.0);
    auto rec = json::Value::object();
    rec.set("section", "entry");
    row.set("recover", rec);
    auto oldd = bench::make_doc("recoverable");
    results_of(oldd)->push_back(row);
    rec.set("section", "exit");
    row.set("recover", std::move(rec));
    auto newd = bench::make_doc("recoverable");
    results_of(newd)->push_back(std::move(row));
    const DiffReport rep = bench::diff(oldd, newd, DiffOptions{});
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].metric, "recover.section");
    EXPECT_TRUE(rep.regressions[0].exact);
    EXPECT_EQ(rep.regressions[0].before_text, "entry");
    EXPECT_EQ(rep.regressions[0].after_text, "exit");
}

// The gates on the checked-in baselines. This test names the fields it
// expects to be presence-only or wall-clock rates; every other field of
// every row must be compared exactly. Each case changes one field of one
// row and diffs the baseline against the changed copy.
class BaselineGates : public ::testing::TestWithParam<const char*> {};

bool presence_only(const std::string& path) {
    static const std::set<std::string> kInfo = {
        "sim_perf.wall_ms", "explore.wall_ms", "dist.wall_ms",
        "dist.p50_acquire_us", "dist.p99_acquire_us", "dist.sessions",
        "dist.shards", "amortized.ci95", "amortized.trials", "duration_ms",
        "warmup_ms", "think_us", "cs_us", "cpu_s", "reader_ops",
        "writer_ops", "pinning", "parking"};
    return kInfo.count(path) > 0 || path.starts_with("telemetry.") ||
           path.starts_with("latency_ns.");
}

bool is_rate(const std::string& path) {
    return path == "throughput_ops" || path == "sim_perf.steps_per_sec" ||
           path == "explore.schedules_per_sec" || path == "dist.ops_per_sec";
}

/// Every leaf below `obj` as a path of member names.
void leaves(const json::Value& obj, std::vector<std::string>* path,
            std::vector<std::vector<std::string>>* out) {
    for (const auto& [name, value] : obj.members()) {
        path->push_back(name);
        if (value.type() == json::Value::Type::Object) {
            leaves(value, path, out);
        } else {
            out->push_back(*path);
        }
        path->pop_back();
    }
}

void set_leaf(json::Value* obj, const std::vector<std::string>& path,
              std::size_t depth, json::Value v) {
    if (depth + 1 == path.size()) {
        obj->set(path[depth], std::move(v));
        return;
    }
    json::Value child = *obj->find(path[depth]);
    set_leaf(&child, path, depth + 1, std::move(v));
    obj->set(path[depth], std::move(child));
}

/// `v` changed: a rate cut to a quarter (a drop past every tolerance),
/// anything else moved up by one, extended or negated.
json::Value changed(const json::Value& v, bool rate) {
    switch (v.type()) {
        case json::Value::Type::Bool: return json::Value(!v.as_bool());
        case json::Value::Type::String: return json::Value(v.as_string() + "x");
        case json::Value::Type::Double:
            return json::Value(rate ? v.as_double() / 4 : v.as_double() + 1);
        default:
            return rate ? json::Value(v.as_double() / 4)
                        : json::Value(v.as_uint() + 1);
    }
}

TEST_P(BaselineGates, EveryFieldOfEveryRowIsGated) {
    const auto base =
        bench::read_file(std::string(RWR_SOURCE_DIR "/") + GetParam());
    const std::string bench_name = base.find("bench")->as_string();
    const auto& rows = base.find("results")->items();
    std::size_t probed = 0;
    std::vector<std::string> wrong;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::string key = bench::row_key(bench_name, rows[r]);
        std::vector<std::string> at;
        std::vector<std::vector<std::string>> paths;
        leaves(rows[r], &at, &paths);
        for (const auto& path : paths) {
            std::string dotted = path[0];
            for (std::size_t i = 1; i < path.size(); ++i) {
                dotted += "." + path[i];
            }
            if (std::ranges::any_of(bench::kRowKeyFields, [&](const auto& kf) {
                    return dotted == kf.first;
                })) {
                continue;  // Changing a key field unjoins the row.
            }
            const json::Value* leaf = &rows[r];
            for (const auto& name : path) {
                leaf = leaf->find(name);
            }
            const bool rate = is_rate(dotted);
            json::Value row = rows[r];
            set_leaf(&row, path, 0, changed(*leaf, rate));
            auto doc = bench::make_doc(bench_name);
            auto* out = results_of(doc);
            for (std::size_t i = 0; i < rows.size(); ++i) {
                out->push_back(i == r ? row : rows[i]);
            }
            const DiffReport rep = bench::diff(base, doc, DiffOptions{});
            // A group's rate is gated only above the group's wall floor.
            bool flags = !presence_only(dotted);
            if (rate && path.size() == 2) {
                const json::Value* wall =
                    rows[r].find(path[0])->find("wall_ms");
                flags = wall != nullptr &&
                        wall->as_double() >= bench::kMinPerfMs &&
                        leaf->as_double() > 0;
            }
            const bool ok =
                rep.missing.empty() &&
                (flags ? rep.regressions.size() == 1 &&
                             rep.regressions[0].key == key &&
                             rep.regressions[0].metric == dotted &&
                             rep.regressions[0].exact == !rate
                       : rep.regressions.empty());
            ++probed;
            if (!ok) {
                wrong.push_back(key + " " + dotted);
            }
        }
    }
    EXPECT_GT(probed, 0u);
    EXPECT_TRUE(wrong.empty())
        << wrong.size() << " of " << probed
        << " changed fields gated wrongly, the first: " << wrong.front();
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineGates,
    ::testing::Values("BENCH_sim.json", "BENCH_dsm.json", "BENCH_recover.json",
                      "BENCH_separation.json", "BENCH_explore.json",
                      "BENCH_dist.json", "BENCH_abort.json"),
    [](const ::testing::TestParamInfo<const char*>& info) {
        std::string name = info.param;
        return name.substr(6, name.size() - 11);  // BENCH_<name>.json
    });

}  // namespace
}  // namespace rwr::harness
