// Unit tests for the shared bench scaffolding (harness/bench_kit.hpp): the
// flag parser every bench main uses, and the grid lookup that must throw
// on a cell that was never run instead of reading it as 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_kit.hpp"

namespace rwr::harness::bench {
namespace {

Args parse(std::vector<const char*> argv,
           std::initializer_list<std::string_view> accepted = {
               "--json", "--smoke", "--jobs"}) {
    argv.insert(argv.begin(), "bench");
    return parse_args(static_cast<int>(argv.size()),
                      const_cast<char**>(argv.data()), accepted);
}

TEST(BenchKitArgs, JobsFlagReadsAndFallsBack) {
    EXPECT_EQ(parse({"--jobs", "3"}).jobs, 3u);
    EXPECT_EQ(parse({}).jobs, default_jobs());
    EXPECT_EQ(parse({"--jobs", "0"}).jobs, default_jobs());
}

TEST(BenchKitArgs, ReadsJsonPathAndSwitches) {
    const Args args = parse({"--smoke", "--json", "out.json"});
    EXPECT_EQ(args.json_path, "out.json");
    EXPECT_TRUE(args.has("--smoke"));
    EXPECT_FALSE(args.has("--sim-only"));
    EXPECT_TRUE(parse({"--sim-only"}, {"--sim-only"}).has("--sim-only"));
}

TEST(BenchKitArgs, UnknownFlagIsAUsageError) {
    EXPECT_THROW((void)parse({"--smok"}), UsageError);
    // A flag another bench accepts is still unknown to this one.
    EXPECT_THROW((void)parse({"--smoke"}, {"--jobs"}), UsageError);
    EXPECT_THROW((void)parse({"stray"}), UsageError);
}

TEST(BenchKitArgs, MissingValueIsAUsageError) {
    EXPECT_THROW((void)parse({"--json"}), UsageError);
    EXPECT_THROW((void)parse({"--smoke", "--jobs"}), UsageError);
}

TEST(BenchKitArgs, NonNumericJobsIsAUsageError) {
    EXPECT_THROW((void)parse({"--jobs", "x"}), UsageError);
    EXPECT_THROW((void)parse({"--jobs", "2x"}), UsageError);
    EXPECT_THROW((void)parse({"--jobs", "-1"}), UsageError);
    EXPECT_THROW((void)parse({"--jobs", ""}), UsageError);
}

TEST(BenchKitLookup, FindsTheMatchingCell) {
    const std::vector<std::uint32_t> cells{4, 8, 16};
    const std::vector<double> means{1.5, 2.5, 3.5};
    EXPECT_DOUBLE_EQ(
        lookup(cells, means, [](std::uint32_t m) { return m == 8; }), 2.5);
}

TEST(BenchKitLookup, MissingCellThrows) {
    const std::vector<std::uint32_t> cells{4, 8, 16};
    const std::vector<double> means{1.5, 2.5, 3.5};
    EXPECT_THROW(
        (void)lookup(cells, means, [](std::uint32_t m) { return m == 32; }),
        std::out_of_range);
}

}  // namespace
}  // namespace rwr::harness::bench
