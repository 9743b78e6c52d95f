// Perf-trajectory regression check over "rwr-bench-v1" JSON files.
//
//   bench_compare --check FILE.json          validate schema, exit 0/1
//   bench_compare OLD.json NEW.json [--max-perf-drop 0.50]
//
// Compare mode joins rows on the row key (bench_json.hpp row_key) and
// flags each field by its gate in bench_json.hpp kFields: an Exact field
// that changed at all, in either direction ([CHANGED]), and a Rate that
// dropped past its tolerance ([REGRESS]). throughput_ops may drop 10%
// (bench_diff.hpp kMaxDrop); a group's wall-clock rate may drop
// --max-perf-drop, a fraction in [0, 1) that is machine-dependent, hence
// the much wider default -- it guards against order-of-magnitude engine
// regressions, not noise -- and only where both runs spent at least 5 ms
// (kMinPerfMs) of wall time in that group.
//
// Baseline rows MISSING from the new run, and baseline fields a matched
// new row lacks, are a hard error, one message each: the checked-in
// baseline is the manifest of what a run must produce, so nothing can
// hide a regression by deleting its row or field. Rows only the new run
// has are informational ([new]).
//
// Exit 1 iff anything regressed or went missing, or a file is unreadable
// or invalid, so CI or a local loop can gate on it; exit 2 with a usage
// line on an unknown flag or a bad --max-perf-drop:
//
//   bench_native_throughput --json new.json && bench_compare BENCH_native.json new.json
//
// The join/diff logic lives in harness/bench_diff.hpp (unit-tested in
// tests/test_bench_diff.cpp); this binary is the CLI around it.
#include <charconv>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
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
        if (f.exact && f.before_text != f.after_text) {
            std::cout << "  [CHANGED] " << f.key << " " << f.metric << ": "
                      << f.before_text << " -> " << f.after_text
                      << " (exact: any change fails)\n";
        } else if (f.exact) {
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

int usage(const std::string& why) {
    std::cerr << "bench_compare: " << why
              << "\nusage: bench_compare --check FILE.json\n"
                 "       bench_compare OLD.json NEW.json "
                 "[--max-perf-drop FRAC]\n";
    return 2;
}

/// --max-perf-drop's value: a fraction in [0, 1), or -1 when malformed.
double parse_drop(std::string_view text) {
    double frac = -1;
    const char* end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, frac);
    return err == std::errc{} && stop == end && frac >= 0 && frac < 1 ? frac
                                                                      : -1;
}

}  // namespace

int main(int argc, char** argv) {
    bool check_only = false;
    bench::DiffOptions opts;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check") {
            check_only = true;
        } else if (arg == "--max-perf-drop") {
            if (i + 1 == argc) {
                return usage("--max-perf-drop needs a value");
            }
            opts.max_perf_drop = parse_drop(argv[++i]);
            if (opts.max_perf_drop < 0) {
                return usage("--max-perf-drop wants a fraction in [0, 1), "
                             "got '" + std::string(argv[i]) + "'");
            }
        } else if (arg.starts_with("-")) {
            return usage("unknown flag '" + arg + "'");
        } else {
            files.push_back(arg);
        }
    }
    try {
        if (check_only) {
            if (files.size() != 1) {
                return usage("--check takes one file");
            }
            bench::validate(bench::read_file(files[0]));
            std::cout << files[0] << ": schema ok\n";
            return 0;
        }
        if (files.size() != 2) {
            return usage("compare takes two files");
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
