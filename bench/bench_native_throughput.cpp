// E9 -- native passages and throughput: AfLock vs baselines vs
// std::shared_mutex, measured with the one native harness (native/perf.hpp).
//
// Two tables, both printed on every run:
//   * solo: ns per uncontended passage on one thread
//     (perf::solo_ns_per_call) for A_f readers and writers over an (n, f)
//     sweep and for the centralized, FAA and std::shared_mutex readers --
//     the instruction-path mirror of Theorem 18: the A_f reader gets
//     cheaper as f rises (Θ(log(n/f))), the writer dearer (Θ(f));
//   * grid: the telemetry-instrumented contended workloads
//     (perf::run_perf) -- throughput, CPU, latency quantiles and
//     telemetry counters per config.
//
// Flags: --json PATH writes every row of both tables as an rwr-bench-v1
// document (a solo row has threads = 1, workload "solo-reader" or
// "solo-writer" and throughput_ops = passages per second); --pin pins the
// grid's threads; --smoke shortens every window from 200 ms to 25 ms.
// BENCH_native.json at the repo root is the checked-in baseline of the
// grid; regenerate with `bench_native_throughput --json BENCH_native.json`.
//
// CAVEAT (EXPERIMENTS.md): timings here are indicative of instruction-path
// cost, not of the RMR behaviour the paper is about (the simulator benches
// carry the reproduction). Thread counts stay small on purpose.
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <shared_mutex>
#include <string>
#include <utility>

#include "harness/bench_kit.hpp"
#include "harness/table.hpp"
#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/park.hpp"
#include "native/perf.hpp"

namespace {

using namespace rwr::native;
namespace bench = rwr::harness::bench;
using rwr::harness::fmt;
using rwr::harness::Table;

using NF = std::pair<std::uint32_t, std::uint32_t>;

void solo_table(bench::Kit& kit, std::uint32_t ms) {
    const std::chrono::milliseconds window(ms);
    Table t({"lock", "passage", "n", "f", "ns/passage"});
    const auto row = [&](const char* lock, const char* passage,
                         std::uint32_t n, std::uint32_t f, double ns) {
        t.row({lock, passage, fmt(n), fmt(f), fmt(ns)});
        if (auto* results = kit.results()) {
            auto r = bench::key_row(
                {.lock = lock, .n = n, .m = 1, .f = f, .threads = 1,
                 .workload = std::string("solo-") + passage});
            r.set("duration_ms", ms);
            r.set("throughput_ops", 1e9 / ns);
            results->push_back(std::move(r));
        }
    };
    for (const auto& [n, f] : {NF{64, 1}, NF{64, 8}, NF{64, 64},
                               NF{4096, 1}, NF{4096, 64}, NF{4096, 4096}}) {
        AfLock lock(n, 1, f);
        row("af", "reader", n, f, perf::solo_ns_per_call([&] {
                lock.lock_shared(0);
                lock.unlock_shared(0);
            }, window));
    }
    for (const auto& [n, f] :
         {NF{64, 1}, NF{64, 64}, NF{4096, 1}, NF{4096, 4096}}) {
        AfLock lock(n, 1, f);
        row("af", "writer", n, f, perf::solo_ns_per_call([&] {
                lock.lock(0);
                lock.unlock(0);
            }, window));
    }
    const auto reader_ns = [&](auto& lock) {
        return perf::solo_ns_per_call([&] {
            lock.lock_shared();
            lock.unlock_shared();
        }, window);
    };
    CentralizedRWLock centralized;
    row("centralized", "reader", 1, 1, reader_ns(centralized));
    FaaRWLock faa(1);
    row("faa", "reader", 1, 1, reader_ns(faa));
    std::shared_mutex std_mutex;
    row("std-shared-mutex", "reader", 1, 1, reader_ns(std_mutex));

    std::cout << "=== E9a: uncontended passages, one thread ===\n";
    t.print();
}

void grid_table(bench::Kit& kit, std::uint32_t ms) {
    struct Case {
        perf::PerfLock lock;
        std::uint32_t readers, writers, f;
        std::uint32_t think_us = 0;
        std::uint32_t cs_us = 0;
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
        {perf::PerfLock::Af, 16, 4, 4, 100, 150, "oversub"},
        {perf::PerfLock::Centralized, 16, 4, 1, 100, 150, "oversub"},
        {perf::PerfLock::Faa, 16, 4, 1, 100, 150, "oversub"},
        {perf::PerfLock::PhaseFair, 16, 4, 1, 100, 150, "oversub"},
    };

    Table t({"lock", "n", "m", "f", "workload", "ops/s", "cpu s"});
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
        cfg.pin = kit.has("--pin");
        cfg.workload = c.workload;
        const auto res = perf::run_perf(cfg);
        t.row({perf::to_string(c.lock), fmt(c.readers), fmt(c.writers),
               fmt(cfg.resolved_f()), cfg.workload,
               fmt(res.throughput_ops(), 0), fmt(res.cpu_s, 3)});
        auto* results = kit.results();
        if (results == nullptr) {
            continue;
        }
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
        row.set("parking", parking_enabled());
        row.set("reader_ops", res.reader_ops);
        row.set("writer_ops", res.writer_ops);
        row.set("throughput_ops", res.throughput_ops());
        row.set("cpu_s", res.cpu_s);
        row.set("latency_ns", bench::latency_to_json(res.telemetry));
        row.set("telemetry", bench::telemetry_to_json(res.telemetry));
        results->push_back(std::move(row));
    }
    std::cout << "\n=== E9b: contended workload grid ===\n";
    t.print();
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("native_throughput", argc, argv,
                   {"--json", "--pin", "--smoke"});
    const std::uint32_t ms = kit.smoke() ? 25 : 200;
    solo_table(kit, ms);
    grid_table(kit, ms);
    return kit.finish();
}
