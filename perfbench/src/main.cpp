// perfbench: runs one workload (or all four) and prints every metric by
// name with its unit, the host/build stamp, and the failed checks.
//
//   perfbench --workload sim-sweep|sim-explore|native-rw|service-loopback|all
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics, the native workloads on one
// thread. --trace 1 is the traced run, the native workloads on nproc
// threads: an untraced reference pass and a traced pass of the workload
// (their throughput ratio is the tracing overhead), then short traced
// passes of the other workloads, so every per-layer metric is reported;
// the spans go to --trace-out as Chrome trace-event JSON. The last line is
// "PERFBENCH_RESULT <json>". Exit status 0 iff every check passed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "stamp.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The end-to-end metrics, in print order; a workload that does not
/// exercise one prints n/a.
const std::vector<std::pair<const char*, const char*>> kE2eNames = {
    {"setup_s", "s"},
    {"sim_steps_per_s", "steps/s"},
    {"reader_rmrs_per_passage", "RMRs"},
    {"writer_rmrs_per_passage", "RMRs"},
    {"network_rmrs_per_op", "RMRs"},
    {"schedules_per_s", "1/s"},
    {"schedules_explored", "count"},
    {"passages_per_s", "1/s"},
    {"reader_p50_ns", "ns"},
    {"reader_p99_ns", "ns"},
    {"writer_p50_ns", "ns"},
    {"writer_p99_ns", "ns"},
    {"cpu_ns_per_passage", "ns"},
    {"passage_cost_cal", "cal"},
    {"peak_rss_mb", "MiB"},
    {"failed_ratio", "failed/attempted"},
};

constexpr int kSetups = 16;
constexpr auto kSetupGap = std::chrono::milliseconds(100);

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME|all "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds > 0 && a.seconds <= 600)) {
                usage("--seconds must be in (0, 600]");
            }
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") {
                usage("--trace takes 0 or 1");
            }
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.trace_out = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0') {
            usage(("bad number for " + flag).c_str());
        }
    }
    if (a.workload != "all" && find_workload(a.workload) == nullptr) {
        usage("unknown or missing --workload");
    }
    return a;
}

/// VmHWM of this process image. (ru_maxrss would not do: Linux carries it
/// over execve, so it reports the launching process's peak too.)
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB.
        }
    }
    return 0.0;
}

std::string json_escape(const std::string& s) {
    std::string r;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            r += '\\';
        }
        r += c < 0x20 ? ' ' : c;
    }
    return r;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void print_metric(const Metric& m) {
    std::printf("  %-40s %18.6g %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_result_line(const Workload& w, const Outcome& out,
                       const std::vector<Metric>& metrics) {
    std::string line = "{\"workload\":\"" + std::string(w.name) +
                       "\",\"correct\":" + (out.correct() ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(out.attempted()) +
                       ",\"failed\":" + std::to_string(out.failed()) +
                       ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i == 0 ? "\"" : ",\"") + metrics[i].name +
                "\":{\"value\":" + num(metrics[i].value) + ",\"unit\":\"" +
                json_escape(metrics[i].unit) + "\"}";
    }
    line += "},\"stamp\":{";
    bool first = true;
    for (const auto& [k, v] : host_stamp()) {
        line += (first ? "\"" : ",\"") + k + "\":\"" + json_escape(v) + "\"";
        first = false;
    }
    line += "}}";
    std::printf("PERFBENCH_RESULT %s\n", line.c_str());
}

/// Times `n` set-ups, kSetupGap apart, into `s`.
void time_setups(const Workload& w, std::uint64_t seed, int n,
                 std::vector<double>& s) {
    for (int i = 0; i < n; ++i) {
        s.push_back(w.setup_once(seed));
        std::this_thread::sleep_for(kSetupGap);
    }
}

/// The end-to-end run of one workload. A shared host runs a thread in fast
/// and slow phases of 0.5-2 s, in a mix that changes by the minute, and a
/// set-up is fixed work that no phase makes faster than the program
/// allows. So the set-ups are spread out, half before the measurement and
/// half after, and setup_s is the fastest of them.
Outcome run_untraced(const Workload& w, const Args& a) {
    Outcome out;
    std::vector<double> setups;
    time_setups(w, a.seed, kSetups / 2, setups);
    w.measure(a.seed, a.seconds, nullptr, out);
    time_setups(w, a.seed, kSetups - kSetups / 2, setups);
    out.e2e("setup_s", quantile(setups, 0.0), "s",
            "fastest of " + std::to_string(kSetups) + ", median " +
                std::to_string(median(setups)));
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    out.e2e("failed_ratio", out.failed_ratio(), "failed/attempted");

    std::printf("\n== %s  seed %llu  %.3g s  (end-to-end)\n", w.name,
                static_cast<unsigned long long>(a.seed), a.seconds);
    for (const auto& [name, unit] : kE2eNames) {
        if (const Metric* m = out.find_e2e(name)) {
            print_metric(*m);
        } else {
            std::printf("  %-40s %18s %-16s\n", name, "n/a", unit);
        }
    }
    return out;
}

/// The traced run: reference and traced passes of `w` (their throughput
/// ratio is the tracing overhead), then short traced passes of the other
/// workloads for their layers.
Outcome run_traced(const Workload& w, const Args& a, Tracer& tracer) {
    Outcome out;
    Outcome reference;
    const double untraced = w.measure(a.seed, a.seconds * 0.25, nullptr,
                                      reference);
    for (const auto& f : reference.failures()) {
        out.fail("untraced reference: " + f);
    }
    out.attempt(reference.attempted());
    const double traced = w.measure(a.seed, a.seconds * 0.45, &tracer, out);
    const double overhead = traced > 0 ? untraced / traced : 0;
    out.layer("trace.overhead_ratio", overhead, "ratio",
              "untraced/traced passages per second");
    for (const auto& other : workloads()) {
        if (&other == &w) {
            continue;
        }
        Outcome o;
        other.measure(a.seed, a.seconds * 0.1, &tracer, o);
        for (const auto& m : o.layers()) {
            out.layer_if_absent(m);
        }
        for (const auto& f : o.failures()) {
            out.fail(std::string(other.name) + " (traced): " + f);
        }
        out.attempt(o.attempted());
    }

    std::printf("\n== %s  seed %llu  %.3g s  (traced)\n", w.name,
                static_cast<unsigned long long>(a.seed), a.seconds);
    std::printf("  tracing overhead: %.1f%% (untraced %.6g vs traced %.6g "
                "passages/s)\n",
                (overhead - 1) * 100, untraced, traced);
    for (const auto& m : out.layers()) {
        print_metric(m);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    set_contended(a.trace);
    std::printf("perfbench host:");
    for (const auto& [k, v] : host_stamp()) {
        std::printf(" %s=%s", k.c_str(), v.c_str());
    }
    std::printf("\n");

    Tracer tracer;
    int status = 0;
    for (const auto& w : workloads()) {
        if (a.workload != "all" && a.workload != w.name) {
            continue;
        }
        Outcome out;
        try {
            out = a.trace ? run_traced(w, a, tracer) : run_untraced(w, a);
        } catch (const std::exception& e) {
            out.fail(std::string("uncaught: ") + e.what());
        }
        for (const auto& f : out.failures()) {
            std::printf("  FAILED: %s\n", f.c_str());
        }
        std::printf("  attempted %llu, failed %llu -> %s\n",
                    static_cast<unsigned long long>(out.attempted()),
                    static_cast<unsigned long long>(out.failed()),
                    out.correct() ? "correct" : "INCORRECT");
        print_result_line(w, out, a.trace ? out.layers() : out.e2e());
        status |= out.exit_code();
    }
    if (a.trace && !a.trace_out.empty()) {
        if (tracer.write_chrome_json(a.trace_out)) {
            std::printf("trace: %zu spans (%llu dropped) -> %s\n",
                        tracer.size(),
                        static_cast<unsigned long long>(tracer.dropped()),
                        a.trace_out.c_str());
        } else {
            std::printf("trace: cannot write %s\n", a.trace_out.c_str());
            status |= 1;
        }
    }
    std::fflush(stdout);
    return status;
}
