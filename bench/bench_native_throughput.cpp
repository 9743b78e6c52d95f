// E9 -- native throughput: AfLock / AfSharedMutex vs baselines vs
// std::shared_mutex under read-heavy, mixed and write-heavy workloads.
//
// Two modes:
//   * default: the google-benchmark suite below (human-readable timings);
//   * --json <path> [--ms N]: the perf pipeline -- drives the telemetry-
//     instrumented workload grid (native/perf.hpp) and writes an
//     "rwr-bench-v1" document with throughput, latency quantiles and
//     telemetry counters per config. `--ms` scales per-config duration
//     (default 200; CI smoke uses less). BENCH_native.json at the repo
//     root is this file's checked-in trajectory baseline; regenerate with
//     `bench_native_throughput --json BENCH_native.json`.
//
// CAVEAT (EXPERIMENTS.md): this host may expose a single core; numbers here
// are indicative of instruction-path cost, not of the RMR behaviour the
// paper is about (the simulator benches carry the reproduction). Thread
// counts stay small on purpose.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <shared_mutex>
#include <string>
#include <thread>

#include "harness/bench_json.hpp"
#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/park.hpp"
#include "native/perf.hpp"
#include "native/shared_mutex.hpp"

namespace {

using namespace rwr::native;

// Uncontended single-thread costs: lock_shared/unlock_shared round trip.
void af_reader_passage(benchmark::State& state) {
    AfLock lock(static_cast<std::uint32_t>(state.range(0)), 1,
                static_cast<std::uint32_t>(state.range(1)));
    for (auto _ : state) {
        lock.lock_shared(0);
        lock.unlock_shared(0);
    }
}
BENCHMARK(af_reader_passage)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({64, 64})
    ->Args({4096, 1})
    ->Args({4096, 64})
    ->Args({4096, 4096});

void af_writer_passage(benchmark::State& state) {
    AfLock lock(static_cast<std::uint32_t>(state.range(0)), 1,
                static_cast<std::uint32_t>(state.range(1)));
    for (auto _ : state) {
        lock.lock(0);
        lock.unlock(0);
    }
}
BENCHMARK(af_writer_passage)
    ->Args({64, 1})
    ->Args({64, 64})
    ->Args({4096, 1})
    ->Args({4096, 4096});

void centralized_reader_passage(benchmark::State& state) {
    CentralizedRWLock lock;
    for (auto _ : state) {
        lock.lock_shared();
        lock.unlock_shared();
    }
}
BENCHMARK(centralized_reader_passage);

void faa_reader_passage(benchmark::State& state) {
    FaaRWLock lock(1);
    for (auto _ : state) {
        lock.lock_shared();
        lock.unlock_shared();
    }
}
BENCHMARK(faa_reader_passage);

void std_shared_mutex_reader_passage(benchmark::State& state) {
    std::shared_mutex lock;
    for (auto _ : state) {
        lock.lock_shared();
        lock.unlock_shared();
    }
}
BENCHMARK(std_shared_mutex_reader_passage);

// Multi-threaded mixed workloads via google-benchmark's threaded mode.
// Thread 0 writes every `range(0)`-th iteration; others read.
template <typename LockT>
void mixed_workload(benchmark::State& state, LockT& lock,
                    std::int64_t write_every) {
    const auto tid = static_cast<std::uint32_t>(state.thread_index());
    std::int64_t i = 0;
    for (auto _ : state) {
        ++i;
        if (tid == 0 && i % write_every == 0) {
            lock.lock(0);
            benchmark::DoNotOptimize(i);
            lock.unlock(0);
        } else {
            lock.lock_shared(tid == 0 ? 0 : tid - 1);
            benchmark::DoNotOptimize(i);
            lock.unlock_shared(tid == 0 ? 0 : tid - 1);
            // Yield between read passages: on an oversubscribed host a
            // relentless reader flood starves the A_f writer indefinitely
            // (the algorithm's documented fairness property), stalling the
            // benchmark itself.
            std::this_thread::yield();
        }
    }
}

void af_mixed(benchmark::State& state) {
    static AfLock lock(8, 1, 4);
    mixed_workload(state, lock, state.range(0));
}
BENCHMARK(af_mixed)->Arg(16)->Arg(128)->Threads(4)->UseRealTime()->MinTime(0.05);

void faa_mixed(benchmark::State& state) {
    static FaaRWLock lock(1);
    mixed_workload(state, lock, state.range(0));
}
BENCHMARK(faa_mixed)->Arg(16)->Arg(128)->Threads(4)->UseRealTime()->MinTime(0.05);

struct StdSharedMutexAdapter {
    std::shared_mutex mx;
    void lock(std::uint32_t) { mx.lock(); }
    void unlock(std::uint32_t) { mx.unlock(); }
    void lock_shared(std::uint32_t) { mx.lock_shared(); }
    void unlock_shared(std::uint32_t) { mx.unlock_shared(); }
};

void std_mixed(benchmark::State& state) {
    static StdSharedMutexAdapter lock;
    mixed_workload(state, lock, state.range(0));
}
BENCHMARK(std_mixed)->Arg(16)->Arg(128)->Threads(4)->UseRealTime()->MinTime(0.05);

// ---- JSON perf pipeline (--json) -------------------------------------

int run_json_mode(const std::string& path, std::uint32_t ms, bool pin) {
    namespace perf = rwr::native::perf;
    namespace bench = rwr::harness::bench;

    struct Case {
        perf::PerfLock lock;
        std::uint32_t readers, writers, f;
        std::uint32_t think_us = 0;
        std::uint32_t cs_us = 0;
        bool topology = false;
        const char* workload = "-";
    };
    // The grid: the uncontended 1r/1w point (the telemetry-overhead
    // acceptance config), a small contended mix for every lock, two A_f
    // f-sweep points (the tradeoff axis the paper is about), and the
    // oversubscribed think-time rows (threads >> cores on CI, waits span
    // scheduling quanta) where the parking layer earns its keep -- see
    // EXPERIMENTS.md E13.
    const Case grid[] = {
        {perf::PerfLock::Af, 1, 1, 1},
        {perf::PerfLock::Af, 4, 1, 2},
        {perf::PerfLock::Af, 4, 1, 4},
        {perf::PerfLock::Af, 8, 2, 0},
        {perf::PerfLock::Centralized, 1, 1, 1},
        {perf::PerfLock::Centralized, 4, 1, 1},
        {perf::PerfLock::Faa, 4, 1, 1},
        {perf::PerfLock::PhaseFair, 4, 1, 1},
        // Writer CS dwell (150us) is what makes oversubscription bite:
        // nanosecond CSes are almost never preempted mid-hold, so without
        // dwell every wait resolves in the spin/yield stages and
        // futex_waits stays 0 even at 20 threads on 1 core.
        {perf::PerfLock::Af, 16, 4, 4, 100, 150, false, "oversub"},
        {perf::PerfLock::Af, 16, 4, 4, 100, 150, true, "oversub-topo"},
        {perf::PerfLock::Centralized, 16, 4, 1, 100, 150, false, "oversub"},
        {perf::PerfLock::Faa, 16, 4, 1, 100, 150, false, "oversub"},
        {perf::PerfLock::PhaseFair, 16, 4, 1, 100, 150, false, "oversub"},
    };

    auto doc = bench::make_doc("native_throughput");
    auto& results = doc.set("results", rwr::harness::json::Value::array());
    for (const Case& c : grid) {
        perf::PerfConfig cfg;
        cfg.lock = c.lock;
        cfg.readers = c.readers;
        cfg.writers = c.writers;
        cfg.f = c.f;
        cfg.duration_ms = ms;
        cfg.warmup_ms = ms / 4;
        cfg.think_us = c.think_us;
        cfg.cs_us = c.cs_us;
        cfg.pin = pin;
        cfg.topology = c.topology;
        cfg.workload = c.workload;
        const auto res = perf::run_perf(cfg);

        auto row = bench::key_row({.lock = perf::to_string(c.lock),
                                   .n = c.readers, .m = c.writers,
                                   .f = cfg.resolved_f(),
                                   .threads = c.readers + c.writers,
                                   .workload = cfg.workload});
        row.set("duration_ms", ms);
        row.set("warmup_ms", cfg.warmup_ms);
        row.set("think_us", cfg.think_us);
        row.set("cs_us", cfg.cs_us);
        row.set("pinning", cfg.pin);
        row.set("parking", rwr::native::parking_enabled());
        row.set("reader_ops", res.reader_ops);
        row.set("writer_ops", res.writer_ops);
        row.set("throughput_ops", res.throughput_ops());
        row.set("cpu_s", res.cpu_s);
        row.set("latency_ns", bench::latency_to_json(res.telemetry));
        row.set("telemetry", bench::telemetry_to_json(res.telemetry));
        results.push_back(std::move(row));
        std::cerr << "  " << perf::to_string(c.lock) << " n=" << c.readers
                  << " m=" << c.writers << " f=" << cfg.resolved_f()
                  << " w=" << cfg.workload << ": "
                  << static_cast<std::uint64_t>(res.throughput_ops())
                  << " ops/s, cpu " << res.cpu_s << "s\n";
    }
    bench::write_file(path, doc);
    std::cerr << "wrote " << path << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    std::uint32_t ms = 200;
    bool pin = false;
    std::vector<char*> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
            ms = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--pin") == 0) {
            pin = true;
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (!json_path.empty()) {
        try {
            return run_json_mode(json_path, ms, pin);
        } catch (const std::exception& e) {
            std::cerr << "bench_native_throughput --json failed: "
                      << e.what() << "\n";
            return 1;
        }
    }
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
