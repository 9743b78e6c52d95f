// lock_serviced: the distributed lock-service daemon + load generator.
//
//   lock_serviced --serve [--shards S] [--locks L] [--sessions N]
//                 [--port P] [--unhomed]
//       Creates the shared table and serves control connections until a
//       client sends SHUTDOWN. Prints "port <P>" once listening.
//
//   lock_serviced --load --port P [--ops N] [--reader-pct R] [--seed S]
//                 [--jobs J] [--json FILE] [--shutdown]
//       Connects to a daemon, attaches the table, and replays the
//       deterministic per-session op streams against it.
//
// bench_dist --smoke runs daemon and client in one process (its
// e17-loopback-homed cell) and checks the witness and the daemon's STATS.
//
// A number that is malformed or out of range (--port > 65535,
// --reader-pct > 100), an unknown flag or an empty table geometry exits 2
// with a usage line.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "dist/bench_rows.hpp"
#include "dist/load.hpp"
#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "harness/bench_json.hpp"
#include "harness/pool.hpp"

namespace {

using namespace rwr;
using namespace rwr::dist;

struct Args {
    bool serve = false;
    bool load = false;
    bool unhomed = false;
    bool shutdown = false;
    std::uint32_t shards = 8;
    std::uint32_t locks = 4;  ///< Locks per shard.
    std::uint32_t sessions = 1024;
    std::uint32_t ops = 1024;  ///< Per session.
    std::uint32_t reader_pct = 90;
    std::uint64_t seed = 1;
    std::uint16_t port = 0;
    unsigned jobs = 0;
    std::string json_path;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "lock_serviced: %s\n"
                 "usage: lock_serviced --serve|--load [--shards S] "
                 "[--locks L] [--sessions N] [--port P] [--ops N] "
                 "[--reader-pct 0..100] [--seed S] [--jobs J] [--json FILE] "
                 "[--unhomed] [--shutdown]\n",
                 why.c_str());
    std::exit(2);
}

/// The value after `flag`: a decimal number in [0, max], else exit 2.
std::uint64_t arg_u64(int argc, char** argv, int& i, const char* flag,
                      std::uint64_t max) {
    if (i + 1 >= argc) {
        usage(std::string(flag) + " needs a value");
    }
    const std::string_view v = argv[++i];
    const char* end = v.data() + v.size();
    std::uint64_t n = 0;
    const auto [stop, err] = std::from_chars(v.data(), end, n);
    if (err != std::errc{} || stop != end || n > max) {
        usage(std::string(flag) + " wants a number in [0, " +
              std::to_string(max) + "], got '" + std::string(v) + "'");
    }
    return n;
}

std::uint32_t arg_u32(int argc, char** argv, int& i, const char* flag,
                      std::uint32_t max = UINT32_MAX) {
    return static_cast<std::uint32_t>(arg_u64(argc, argv, i, flag, max));
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--serve") {
            a.serve = true;
        } else if (f == "--load") {
            a.load = true;
        } else if (f == "--unhomed") {
            a.unhomed = true;
        } else if (f == "--shutdown") {
            a.shutdown = true;
        } else if (f == "--shards") {
            a.shards = arg_u32(argc, argv, i, "--shards");
        } else if (f == "--locks") {
            a.locks = arg_u32(argc, argv, i, "--locks");
        } else if (f == "--sessions") {
            a.sessions = arg_u32(argc, argv, i, "--sessions");
        } else if (f == "--ops") {
            a.ops = arg_u32(argc, argv, i, "--ops");
        } else if (f == "--reader-pct") {
            a.reader_pct = arg_u32(argc, argv, i, "--reader-pct", 100);
        } else if (f == "--seed") {
            a.seed = arg_u64(argc, argv, i, "--seed", UINT64_MAX);
        } else if (f == "--port") {
            a.port = static_cast<std::uint16_t>(
                arg_u64(argc, argv, i, "--port", UINT16_MAX));
        } else if (f == "--jobs") {
            a.jobs = arg_u32(argc, argv, i, "--jobs");
        } else if (f == "--json") {
            if (i + 1 >= argc) {
                usage("--json needs a path");
            }
            a.json_path = argv[++i];
        } else {
            usage("unknown flag " + f);
        }
    }
    try {
        (void)TableLayout(TableConfig{a.shards, a.locks, a.sessions});
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
    return a;
}

void print_result(const TableConfig& cfg, const LoadResult& res) {
    std::printf(
        "sessions %u  shards %u  locks %u  ops %llu (%llu rd / %llu wr)\n",
        cfg.sessions, cfg.shards, cfg.num_locks(),
        static_cast<unsigned long long>(res.merged.total_ops()),
        static_cast<unsigned long long>(res.merged.read_ops),
        static_cast<unsigned long long>(res.merged.write_ops));
    std::printf(
        "wall %.1f ms  %.0f ops/s  net-rmrs/op %.2f  p50 %.1f us  p99 %.1f "
        "us  violations %llu\n",
        res.wall_ms, res.ops_per_sec,
        res.merged.total_ops() == 0
            ? 0.0
            : static_cast<double>(res.merged.network_rmrs) /
                  static_cast<double>(res.merged.total_ops()),
        res.merged.percentile_us(0.50), res.merged.percentile_us(0.99),
        static_cast<unsigned long long>(res.witness_violations));
}

void emit_json(const std::string& path, const TableConfig& cfg, const Args& a,
               const LoadResult& res) {
    namespace bench = harness::bench;
    harness::json::Value doc = bench::make_doc("lock_serviced");
    DistRowMetrics m;
    m.ops = res.merged.total_ops();
    m.network_rmrs_per_op =
        m.ops == 0 ? 0.0
                   : static_cast<double>(res.merged.network_rmrs) /
                         static_cast<double>(m.ops);
    m.ops_per_sec = res.ops_per_sec;
    m.p50_acquire_us = res.merged.percentile_us(0.50);
    m.p99_acquire_us = res.merged.percentile_us(0.99);
    m.wall_ms = res.wall_ms;
    const unsigned jobs = a.jobs == 0 ? harness::default_jobs() : a.jobs;
    doc.set("results", harness::json::Value::array())
        .push_back(dist_row("lockserviced-load", "loopback", cfg,
                            a.reader_pct, jobs, m));
    bench::write_file(path, doc);
    std::printf("wrote %s\n", path.c_str());
}

int run_serve(const Args& a) {
    TableConfig cfg;
    cfg.shards = a.shards;
    cfg.locks_per_shard = a.locks;
    cfg.sessions = a.sessions;
    cfg.homed = !a.unhomed;
    LockServiceDaemon daemon(cfg, a.port);
    daemon.start();
    std::printf("port %u\nshm %s\n", daemon.port(), daemon.shm_name().c_str());
    std::fflush(stdout);
    while (daemon.running()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return 0;
}

int run_loadgen(const Args& a) {
    DistClient client;
    client.connect("127.0.0.1", a.port);
    const TableConfig cfg = client.config();
    auto spots = std::make_unique<native::ParkingSpot[]>(cfg.sessions);
    NativeTable table(client.words(), cfg, spots.get());
    LoadConfig lc;
    lc.ops_per_session = a.ops;
    lc.reader_pct = a.reader_pct;
    lc.seed = a.seed;
    lc.jobs = a.jobs;
    const LoadResult res = run_load(table, lc);
    print_result(cfg, res);
    const bool me_held = res.witness_violations == 0;
    if (!me_held) {
        std::fprintf(stderr,
                     "CHECK FAILED: loopback mutual exclusion (witness)\n");
    }
    if (!a.json_path.empty()) {
        emit_json(a.json_path, cfg, a, res);
    }
    if (a.shutdown) {
        client.shutdown_server();
    }
    return me_held ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    try {
        if (a.serve) {
            return run_serve(a);
        }
        if (a.load) {
            return run_loadgen(a);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    usage("no mode given");
}
