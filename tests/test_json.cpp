// harness/json.hpp (value tree, writer, strict parser) and
// harness/bench_json.hpp (the "rwr-bench-v1" schema validator the perf
// pipeline writes and bench_compare consumes).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "harness/bench_json.hpp"
#include "harness/json.hpp"
#include "native/telemetry.hpp"

namespace {

using rwr::harness::json::Value;
namespace bench = rwr::harness::bench;

TEST(JsonTest, ScalarsDump) {
    EXPECT_EQ(Value(nullptr).dump(), "null\n");
    EXPECT_EQ(Value(true).dump(), "true\n");
    EXPECT_EQ(Value(std::int64_t{-42}).dump(), "-42\n");
    EXPECT_EQ(Value(std::uint64_t{18446744073709551615ull}).dump(),
              "18446744073709551615\n");
    EXPECT_EQ(Value("hi\n\"there\"").dump(), "\"hi\\n\\\"there\\\"\"\n");
    // A double always re-parses as a double.
    EXPECT_EQ(Value(2.0).dump(), "2.0\n");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplacesDuplicates) {
    auto obj = Value::object();
    obj.set("b", 1);
    obj.set("a", 2);
    obj.set("b", 3);  // Replace, not append.
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "b");
    EXPECT_EQ(obj.members()[1].first, "a");
    EXPECT_EQ(obj.find("b")->as_uint(), 3u);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonTest, RoundTripThroughParser) {
    auto doc = Value::object();
    doc.set("name", "A_f lock");
    doc.set("count", std::uint64_t{12345678901234ull});
    doc.set("neg", std::int64_t{-7});
    doc.set("ratio", 0.375);
    doc.set("flag", true);
    doc.set("nothing", Value(nullptr));
    auto arr = Value::array();
    arr.push_back(1);
    arr.push_back("two");
    auto nested = Value::object();
    nested.set("deep", 3);
    arr.push_back(std::move(nested));
    doc.set("items", std::move(arr));

    const Value back = Value::parse(doc.dump());
    EXPECT_EQ(back.dump(), doc.dump());
    EXPECT_EQ(back.find("count")->as_uint(), 12345678901234ull);
    EXPECT_DOUBLE_EQ(back.find("ratio")->as_double(), 0.375);
    EXPECT_EQ(back.find("items")->items()[2].find("deep")->as_uint(), 3u);
}

TEST(JsonTest, ParserAcceptsEscapesAndWhitespace) {
    const Value v = Value::parse(
        "  { \"k\" : [ 1 , -2.5e1 , \"a\\tb\\u0041\" , null , false ] }  ");
    const auto& items = v.find("k")->items();
    EXPECT_EQ(items[0].as_uint(), 1u);
    EXPECT_DOUBLE_EQ(items[1].as_double(), -25.0);
    EXPECT_EQ(items[2].as_string(), "a\tbA");
    EXPECT_EQ(items[3].type(), Value::Type::Null);
    EXPECT_FALSE(items[4].as_bool());
}

TEST(JsonTest, ParserRejectsMalformedInput) {
    EXPECT_THROW(Value::parse(""), std::runtime_error);
    EXPECT_THROW(Value::parse("{"), std::runtime_error);
    EXPECT_THROW(Value::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(Value::parse("[1 2]"), std::runtime_error);
    EXPECT_THROW(Value::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Value::parse("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW(Value::parse("nulll"), std::runtime_error);
    EXPECT_THROW(Value::parse("--3"), std::runtime_error);
}

TEST(JsonTest, TypeMismatchesThrow) {
    EXPECT_THROW((void)Value(1).as_string(), std::runtime_error);
    EXPECT_THROW((void)Value("x").as_double(), std::runtime_error);
    EXPECT_THROW((void)Value(std::int64_t{-1}).as_uint(), std::runtime_error);
    EXPECT_THROW((void)Value(1).items(), std::runtime_error);
    auto arr = Value::array();
    EXPECT_THROW(arr.set("k", 1), std::runtime_error);
}

// ---- rwr-bench-v1 schema ---------------------------------------------

Value valid_native_row() {
    auto row = Value::object();
    row.set("lock", "af");
    row.set("n", 4);
    row.set("f", 2);
    row.set("threads", 5);
    row.set("throughput_ops", 1.25e6);
    return row;
}

TEST(BenchJsonTest, ValidatesGoodDocuments) {
    auto doc = bench::make_doc("native_throughput");
    doc.set("results", Value::array()).push_back(valid_native_row());
    EXPECT_NO_THROW(bench::validate(doc));

    auto sim = bench::make_doc("tradeoff");
    auto row = Value::object();
    row.set("lock", "af");
    row.set("n", 64);
    row.set("f", 8);
    row.set("threads", 65);
    auto rmr = Value::object();
    rmr.set("reader_mean_passage", 3.5);
    rmr.set("writer_mean_passage", 9.0);
    rmr.set("reader_max_passage", 7);
    rmr.set("writer_max_passage", 12);
    row.set("sim_rmr", std::move(rmr));
    sim.set("results", Value::array()).push_back(std::move(row));
    EXPECT_NO_THROW(bench::validate(sim));

    // A dist row: the exact quartet alone is enough (sim backend)...
    auto dist_doc = bench::make_doc("dist");
    auto drow = Value::object();
    drow.set("lock", "e17-dist-homed");
    drow.set("protocol", "dsm-sim");
    drow.set("n", 16);
    drow.set("f", 1);
    drow.set("threads", 1);
    auto d = Value::object();
    d.set("ops", std::uint64_t{96});
    d.set("network_rmrs_per_op", 15.4);
    d.set("sessions", 16);
    d.set("shards", 1);
    drow.set("dist", d);
    auto& results = dist_doc.set("results", Value::array());
    results.push_back(drow);
    // ...and native loopback rows add the wall-clock fields.
    d.set("ops_per_sec", 2.5e6);
    d.set("p50_acquire_us", 1.2);
    d.set("p99_acquire_us", 40.0);
    d.set("wall_ms", 410.0);
    drow.set("protocol", "loopback");
    drow.set("dist", std::move(d));
    results.push_back(std::move(drow));
    EXPECT_NO_THROW(bench::validate(dist_doc));

    // An amortized row: the exact quartet alone suffices (deterministic
    // grid cell)...
    auto amort_doc = bench::make_doc("abortable");
    auto arow = Value::object();
    arow.set("lock", "jj-amortized");
    arow.set("protocol", "write-back");
    arow.set("n", 0);
    arow.set("m", 8);
    arow.set("f", 1);
    arow.set("threads", 1);
    auto a = Value::object();
    a.set("episodes", std::uint64_t{96});
    a.set("aborted", std::uint64_t{32});
    a.set("passages", std::uint64_t{64});
    a.set("writer_amortized_rmrs", 11.5);
    arow.set("amortized", a);
    auto& aresults = amort_doc.set("results", Value::array());
    aresults.push_back(arow);
    // ...and randomized-trial rows add the expectation fields.
    a.set("abort_rmr_mean", 4.25);
    a.set("abort_rmr_max", 9);
    a.set("expected_rmr", 10.9);
    a.set("ci95", 0.6);
    a.set("trials", 9);
    a.set("worst_case_rmr", 12.1);
    arow.set("lock", "pw-randomized");
    arow.set("amortized", std::move(a));
    aresults.push_back(std::move(arow));
    EXPECT_NO_THROW(bench::validate(amort_doc));
}

TEST(BenchJsonTest, RejectsSchemaViolations) {
    // Wrong schema tag.
    auto doc = bench::make_doc("x");
    doc.set("schema", "rwr-bench-v0");
    EXPECT_THROW(bench::validate(doc), std::runtime_error);

    // Row without any payload group.
    auto no_payload = bench::make_doc("x");
    {
        auto bare = Value::object();
        bare.set("lock", "af");
        bare.set("n", 1);
        bare.set("f", 1);
        bare.set("threads", 2);
        no_payload.set("results", Value::array()).push_back(std::move(bare));
    }
    EXPECT_THROW(bench::validate(no_payload), std::runtime_error);

    // Row missing a required axis.
    auto no_axis = bench::make_doc("x");
    auto bad = valid_native_row();
    bad.set("lock", 7);  // Not a string.
    no_axis.set("results", Value::array()).push_back(std::move(bad));
    EXPECT_THROW(bench::validate(no_axis), std::runtime_error);

    // sim_rmr without its required means.
    auto bad_rmr = bench::make_doc("x");
    auto rrow = valid_native_row();
    rrow.set("sim_rmr", Value::object());
    bad_rmr.set("results", Value::array()).push_back(std::move(rrow));
    EXPECT_THROW(bench::validate(bad_rmr), std::runtime_error);

    // dist without its required quartet.
    auto bad_dist = bench::make_doc("x");
    auto drow = valid_native_row();
    auto d = Value::object();
    d.set("ops", 10);
    d.set("sessions", 4);  // No network_rmrs_per_op / shards.
    drow.set("dist", std::move(d));
    bad_dist.set("results", Value::array()).push_back(std::move(drow));
    EXPECT_THROW(bench::validate(bad_dist), std::runtime_error);

    // amortized without its required quartet.
    auto bad_amort = bench::make_doc("x");
    auto arow = valid_native_row();
    auto a = Value::object();
    a.set("episodes", 10);
    a.set("passages", 8);  // No aborted / writer_amortized_rmrs.
    arow.set("amortized", std::move(a));
    bad_amort.set("results", Value::array()).push_back(std::move(arow));
    EXPECT_THROW(bench::validate(bad_amort), std::runtime_error);

    // amortized with a mistyped optional field.
    auto bad_amort2 = bench::make_doc("x");
    auto arow2 = valid_native_row();
    auto a2 = Value::object();
    a2.set("episodes", 10);
    a2.set("aborted", 2);
    a2.set("passages", 8);
    a2.set("writer_amortized_rmrs", 11.5);
    a2.set("expected_rmr", "10.9");  // Stringly-typed number.
    arow2.set("amortized", std::move(a2));
    bad_amort2.set("results", Value::array()).push_back(std::move(arow2));
    EXPECT_THROW(bench::validate(bad_amort2), std::runtime_error);

    // A field the schema table does not name: no gate would compare it.
    auto unknown = bench::make_doc("x");
    auto urow = valid_native_row();
    urow.set("recovery", Value::object());
    unknown.set("results", Value::array()).push_back(std::move(urow));
    EXPECT_THROW(bench::validate(unknown), std::runtime_error);

    // The same inside a known group.
    auto unknown_in_group = bench::make_doc("x");
    auto grow = valid_native_row();
    auto g = Value::object();
    g.set("reader_mean_passage", 3.5);
    g.set("writer_mean_passage", 9.0);
    g.set("reader_p99_passage", 7);
    grow.set("sim_rmr", std::move(g));
    unknown_in_group.set("results", Value::array()).push_back(std::move(grow));
    EXPECT_THROW(bench::validate(unknown_in_group), std::runtime_error);

    // Two rows with one row key: bench_compare could join only one.
    auto dup = bench::make_doc("x");
    auto& rows = dup.set("results", Value::array());
    rows.push_back(valid_native_row());
    rows.push_back(valid_native_row());
    EXPECT_THROW(bench::validate(dup), std::runtime_error);
}

TEST(BenchJsonTest, WriteValidatesAndRoundTripsThroughDisk) {
    const std::string path = ::testing::TempDir() + "rwr_bench_json_test.json";
    auto doc = bench::make_doc("native_throughput");
    doc.set("results", Value::array()).push_back(valid_native_row());
    bench::write_file(path, doc);
    const Value back = bench::read_file(path);
    EXPECT_NO_THROW(bench::validate(back));
    EXPECT_EQ(back.dump(), doc.dump());
    std::remove(path.c_str());

    // An invalid document must never reach the disk.
    auto bad = bench::make_doc("x");
    bad.set("schema", "nope");
    EXPECT_THROW(bench::write_file(path, bad), std::runtime_error);
    std::ifstream probe(path);
    EXPECT_FALSE(probe.good());
}

TEST(BenchJsonTest, TelemetrySerializationCoversEveryCounter) {
    rwr::native::TelemetrySnapshot snap;
    snap.counters[0] = 42;
    const Value t = bench::telemetry_to_json(snap);
    EXPECT_EQ(t.members().size(), rwr::native::kTelemetryCounters);
    EXPECT_EQ(t.find("reader_acquisitions")->as_uint(), 42u);

    // Empty histograms are skipped; populated ones carry the quantiles.
    EXPECT_EQ(bench::latency_to_json(snap).members().size(), 0u);
    snap.histos[0][4] = 10;
    const Value lat = bench::latency_to_json(snap);
    ASSERT_NE(lat.find("reader_entry"), nullptr);
    EXPECT_EQ(lat.find("reader_entry")->find("samples")->as_uint(), 10u);
    EXPECT_EQ(lat.find("reader_entry")->find("p50")->as_uint(), 32u);
}

}  // namespace
