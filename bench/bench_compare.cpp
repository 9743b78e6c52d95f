// Perf-trajectory regression check over "rwr-bench-v1" JSON files.
//
//   bench_compare --check FILE.json          validate schema, exit 0/1
//   bench_compare OLD.json NEW.json [--max-perf-drop 0.50]
//
// Compare mode joins rows on the row key (bench_json.hpp RowKey) and
// flags: throughput_ops drops beyond 10% (bench_diff.hpp kMaxDrop),
// exact counts (sim_rmr means, explore schedules, dist network RMRs,
// amortized RMRs) that change at all, in either direction -- they are
// deterministic, so any move is a real protocol or engine change -- and
// wall-clock rates (steps_per_sec, schedules_per_sec, ops_per_sec)
// dropping beyond --max-perf-drop (machine-dependent, hence the much wider
// default tolerance -- it guards against order-of-magnitude engine
// regressions, not noise). Rows where
// either run spent less than 5 ms (kMinPerfMs) of wall time are exempt from
// the wall-clock gate: they measure scheduler jitter, not the engine.
//
// Baseline rows MISSING from the new run, and baseline fields a matched
// new row lacks, are a hard error, one message each: the checked-in
// baseline is the manifest of what a run must produce, so nothing can
// hide a regression by deleting its row or field. Rows only the new run
// has are informational ([new]).
//
// Exit 1 iff anything regressed or went missing, so CI or a local loop
// can gate on it:
//
//   bench_native_throughput --json new.json && bench_compare BENCH_native.json new.json
//
// The join/diff logic lives in harness/bench_diff.hpp (unit-tested in
// tests/test_bench_diff.cpp); this binary is the CLI around it.
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness/bench_diff.hpp"
#include "harness/bench_json.hpp"

namespace {

using rwr::harness::json::Value;
namespace bench = rwr::harness::bench;

int compare(const Value& oldd, const Value& newd,
            const bench::DiffOptions& opts) {
    const bench::DiffReport rep = bench::diff(oldd, newd, opts);
    for (const auto& key : rep.added) {
        std::cout << "  [new]     " << key << "\n";
    }
    std::cout << rep.joined << " rows joined, " << rep.regressions.size()
              << " regression(s), " << rep.missing.size()
              << " missing row(s)/field(s)\n";
    for (const auto& key : rep.missing) {
        std::cout << "  [MISSING] " << key
                  << ": present in baseline but absent from the new run\n";
    }
    for (const auto& f : rep.regressions) {
        if (f.exact) {
            std::cout << std::setprecision(
                             std::numeric_limits<double>::digits10)
                      << "  [CHANGED] " << f.key << " " << f.metric << ": "
                      << f.before << " -> " << f.after
                      << " (exact count: any change fails)\n"
                      << std::setprecision(6);
        } else {
            std::cout << "  [REGRESS] " << f.key << " " << f.metric << ": "
                      << f.before << " -> " << f.after << " ("
                      << (f.change * 100) << "% worse)\n";
        }
    }
    return rep.ok() ? 0 : 1;
}

int usage() {
    std::cerr << "usage: bench_compare --check FILE.json\n"
                 "       bench_compare OLD.json NEW.json "
                 "[--max-perf-drop FRAC]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool check_only = false;
    bench::DiffOptions opts;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check_only = true;
        } else if (std::strcmp(argv[i], "--max-perf-drop") == 0 &&
                   i + 1 < argc) {
            opts.max_perf_drop = std::stod(argv[++i]);
        } else {
            files.emplace_back(argv[i]);
        }
    }
    try {
        if (check_only) {
            if (files.size() != 1) {
                return usage();
            }
            bench::validate(bench::read_file(files[0]));
            std::cout << files[0] << ": schema ok\n";
            return 0;
        }
        if (files.size() != 2) {
            return usage();
        }
        const Value oldd = bench::read_file(files[0]);
        const Value newd = bench::read_file(files[1]);
        bench::validate(oldd);
        bench::validate(newd);
        return compare(oldd, newd, opts);
    } catch (const std::exception& e) {
        std::cerr << "bench_compare: " << e.what() << "\n";
        return 1;
    }
}
