// The scaffolding every bench main shares, decided once: flag parsing,
// named checks, the rwr-bench-v1 document and the exit code.
//
//   int main(int argc, char** argv) {
//       bench::Kit kit("separation", argc, argv,
//                      {"--json", "--smoke", "--jobs"});
//       ... run the grid on kit.jobs() workers, push rows into
//           kit.results() (nullptr without --json) ...
//       kit.check(dsm <= cap * cc, "ya m=16: DSM mean exceeds 4x CC");
//       return kit.finish();
//   }
//
// Flags: a bench lists the flags it accepts. "--json PATH" and "--jobs N"
// take a value (--jobs 0 or no --jobs means default_jobs()); every other
// listed flag is a boolean switch. An unknown flag, a missing value or a
// non-numeric --jobs prints a usage line and exits 2.
//
// Exit codes: 0 when every check passed and the document (if any) was
// written; 1 on a failed check or a write error; 2 on a bad command line.
//
// Grid results are read back by cell through lookup(), which throws when
// no cell matches: a renamed or dropped cell must stop the bench, not read
// as 0 and turn a check such as `hi <= 2 * lo` into a pass that tests
// nothing.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "harness/bench_json.hpp"
#include "harness/pool.hpp"

namespace rwr::harness::bench {

/// A command line the bench does not accept.
class UsageError : public std::runtime_error {
   public:
    using std::runtime_error::runtime_error;
};

struct Args {
    std::string json_path;              ///< --json PATH; empty = no document.
    unsigned jobs = default_jobs();     ///< --jobs N, resolved.
    std::vector<std::string> switches;  ///< Boolean flags given.

    [[nodiscard]] bool has(std::string_view flag) const {
        return std::find(switches.begin(), switches.end(), flag) !=
               switches.end();
    }
};

/// Parses argv[1..] against the flags a bench accepts; throws UsageError
/// on an unknown flag, a missing value or a --jobs that is not a number.
inline Args parse_args(int argc, char** argv,
                       std::initializer_list<std::string_view> accepted) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (std::find(accepted.begin(), accepted.end(), flag) ==
            accepted.end()) {
            throw UsageError("unknown flag '" + std::string(flag) + "'");
        }
        if (flag != "--json" && flag != "--jobs") {
            args.switches.emplace_back(flag);
            continue;
        }
        if (i + 1 >= argc) {
            throw UsageError(std::string(flag) + " needs a value");
        }
        const std::string value = argv[++i];
        if (flag == "--json") {
            args.json_path = value;
            continue;
        }
        unsigned n = 0;
        const char* end = value.data() + value.size();
        const auto [stop, err] = std::from_chars(value.data(), end, n);
        if (err != std::errc{} || stop != end) {
            throw UsageError("--jobs wants a worker count, got '" + value +
                             "'");
        }
        args.jobs = n == 0 ? default_jobs() : n;
    }
    return args;
}

class Kit {
   public:
    /// `name` is the document's "bench" field; the binary is bench_<name>.
    /// A bad command line prints the reason and a usage line, then exits 2.
    Kit(const std::string& name, int argc, char** argv,
        std::initializer_list<std::string_view> accepted)
        : binary_("bench_" + name), doc_(make_doc(name)) {
        try {
            args_ = parse_args(argc, argv, accepted);
        } catch (const UsageError& e) {
            std::cerr << binary_ << ": " << e.what() << "\nusage: "
                      << binary_;
            for (const auto a : accepted) {
                const char* value = a == "--json"   ? " PATH"
                                    : a == "--jobs" ? " N"
                                                    : "";
                std::cerr << " [" << a << value << "]";
            }
            std::cerr << "\n";
            std::exit(2);
        }
        if (!args_.json_path.empty()) {
            results_ = &doc_.set("results", json::Value::array());
        }
    }
    Kit(const Kit&) = delete;
    Kit& operator=(const Kit&) = delete;

    [[nodiscard]] unsigned jobs() const { return args_.jobs; }
    [[nodiscard]] bool has(std::string_view flag) const {
        return args_.has(flag);
    }
    [[nodiscard]] bool smoke() const { return has("--smoke"); }
    /// The document's results array; nullptr when no --json was given.
    [[nodiscard]] json::Value* results() { return results_; }

    /// A named check: a failure is printed to stderr and fails the run.
    void check(bool ok, const std::string& name) {
        if (!ok) {
            ++failures_;
            std::cerr << binary_ << " CHECK FAILED: " << name << "\n";
        }
    }

    /// Validates and writes the document (with --json), reports failed
    /// checks, and returns the exit code. `on_pass` goes to stdout when
    /// the code is 0.
    [[nodiscard]] int finish(const char* on_pass = nullptr) {
        int code = failures_ == 0 ? 0 : 1;
        if (results_ != nullptr) {
            try {
                write_file(args_.json_path, doc_);
                std::cerr << "wrote " << args_.json_path << "\n";
            } catch (const std::exception& e) {
                std::cerr << binary_ << " --json failed: " << e.what()
                          << "\n";
                code = 1;
            }
        }
        if (failures_ > 0) {
            std::cerr << binary_ << ": " << failures_
                      << " check(s) failed\n";
        } else if (code == 0 && on_pass != nullptr) {
            std::cout << on_pass;
        }
        return code;
    }

   private:
    std::string binary_;
    Args args_;
    json::Value doc_;
    json::Value* results_ = nullptr;
    int failures_ = 0;
};

/// The result of the grid cell `match` accepts, from a grid's parallel
/// cell and result vectors. Throws std::out_of_range when no cell matches.
template <typename Cell, typename Result, typename Match>
const Result& lookup(const std::vector<Cell>& cells,
                     const std::vector<Result>& results, Match match) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (match(cells[i])) {
            return results.at(i);
        }
    }
    throw std::out_of_range("bench: lookup of a grid cell that was not run");
}

}  // namespace rwr::harness::bench
