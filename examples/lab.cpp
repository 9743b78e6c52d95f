// rwlock lab: run any experiment from the command line.
//
//   lab tradeoff  --lock af --n 256 --m 2 --f 16 --protocol wb --passages 3
//   lab adversary --lock centralized --n 128
//   lab explore   --lock af --n 2 --m 1 --f 2 --depth 12
//   lab list
//
// A thin front-end over the same harness the benches and tests use;
// intended for poking at parameter combinations the canned benches don't
// sweep.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "adversary/adversary.hpp"
#include "harness/bench_json.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "native/perf.hpp"
#include "sim/explorer.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
    std::map<std::string, std::string> flags;
    for (int i = first; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) == 0) {
            key = key.substr(2);
        }
        flags[key] = argv[i + 1];
    }
    return flags;
}

std::uint64_t flag_u64(const std::map<std::string, std::string>& f,
                       const std::string& k, std::uint64_t def) {
    auto it = f.find(k);
    return it == f.end() ? def : std::stoull(it->second);
}

LockKind flag_lock(const std::map<std::string, std::string>& f) {
    const auto it = f.find("lock");
    const std::string name = it == f.end() ? "af" : it->second;
    for (const auto kind : all_lock_kinds()) {
        std::string canon = to_string(kind);
        if (canon == name || (name == "af" && kind == LockKind::Af)) {
            return kind;
        }
    }
    std::cerr << "unknown lock '" << name << "'; try: ";
    for (const auto kind : all_lock_kinds()) {
        std::cerr << to_string(kind) << " ";
    }
    std::cerr << "\n";
    std::exit(2);
}

Protocol flag_protocol(const std::map<std::string, std::string>& f) {
    const auto it = f.find("protocol");
    const std::string p = it == f.end() ? "wb" : it->second;
    if (p == "wt" || p == "write-through") {
        return Protocol::WriteThrough;
    }
    if (p == "wb" || p == "write-back") {
        return Protocol::WriteBack;
    }
    if (p == "dsm") {
        return Protocol::Dsm;
    }
    std::cerr << "unknown protocol '" << p << "' (wt|wb|dsm)\n";
    std::exit(2);
}

int cmd_tradeoff(const std::map<std::string, std::string>& f) {
    ExperimentConfig cfg;
    cfg.lock = flag_lock(f);
    cfg.protocol = flag_protocol(f);
    cfg.n = static_cast<std::uint32_t>(flag_u64(f, "n", 16));
    cfg.m = static_cast<std::uint32_t>(flag_u64(f, "m", 1));
    cfg.f = static_cast<std::uint32_t>(flag_u64(f, "f", 1));
    cfg.passages = flag_u64(f, "passages", 3);
    cfg.cs_steps = flag_u64(f, "cs-steps", 1);
    cfg.seed = flag_u64(f, "seed", 1);
    cfg.sched = f.count("round-robin") ? SchedKind::RoundRobin
                                       : SchedKind::Random;
    const auto res = run_experiment(cfg);
    std::printf("lock=%s protocol=%s n=%u m=%u f=%u passages=%llu\n",
                to_string(cfg.lock).c_str(), to_string(cfg.protocol).c_str(),
                cfg.n, cfg.m, cfg.f,
                static_cast<unsigned long long>(cfg.passages));
    if (!res.finished) {
        std::printf("DID NOT FINISH within %llu steps\n",
                    static_cast<unsigned long long>(cfg.max_steps));
        return 1;
    }
    Table t({"role", "entry RMR mean/max", "exit RMR mean/max",
             "passage RMR mean/max", "steps mean"});
    auto row = [&](const char* role, const RoleStats& s) {
        t.row({role,
               fmt(s.mean_in(Section::Entry)) + "/" +
                   fmt(s.max_in(Section::Entry)),
               fmt(s.mean_in(Section::Exit)) + "/" +
                   fmt(s.max_in(Section::Exit)),
               fmt(s.mean_passage_rmrs) + "/" + fmt(s.max_passage_rmrs),
               fmt(s.mean_steps[1] + s.mean_steps[2] + s.mean_steps[3])});
    };
    row("reader", res.readers);
    row("writer", res.writers);
    t.print();
    std::printf("max concurrent readers: %u; ME violations: %llu\n",
                res.max_concurrent_readers,
                static_cast<unsigned long long>(res.me_violations));
    return res.me_violations == 0 ? 0 : 1;
}

Section flag_section(const std::map<std::string, std::string>& f) {
    const auto it = f.find("section");
    const std::string s = it == f.end() ? "entry" : it->second;
    if (s == "entry") {
        return Section::Entry;
    }
    if (s == "critical" || s == "cs") {
        return Section::Critical;
    }
    if (s == "exit") {
        return Section::Exit;
    }
    std::cerr << "unknown section '" << s << "' (entry|critical|exit)\n";
    std::exit(2);
}

int cmd_faults(const std::map<std::string, std::string>& f) {
    ExperimentConfig cfg;
    cfg.lock = flag_lock(f);
    cfg.protocol = flag_protocol(f);
    cfg.n = static_cast<std::uint32_t>(flag_u64(f, "n", 2));
    cfg.m = static_cast<std::uint32_t>(flag_u64(f, "m", 1));
    cfg.f = static_cast<std::uint32_t>(flag_u64(f, "f", 1));
    cfg.passages = flag_u64(f, "passages", 2);
    cfg.seed = flag_u64(f, "seed", 1);
    cfg.max_steps = flag_u64(f, "max-steps", 100'000);
    cfg.sched = f.count("round-robin") ? SchedKind::RoundRobin
                                       : SchedKind::Random;
    const auto victim =
        static_cast<rwr::ProcId>(flag_u64(f, "crash", cfg.n + cfg.m));
    if (victim < cfg.n + cfg.m) {
        const auto step = flag_u64(f, "step", 1);
        const auto stall = flag_u64(f, "stall-steps", 0);
        if (stall > 0) {
            cfg.faults.stall(victim, flag_section(f), step, stall);
        } else {
            cfg.faults.crash(victim, flag_section(f), step);
        }
    }
    cfg.progress_window = flag_u64(f, "window", 2000);
    cfg.wall_deadline_ms = flag_u64(f, "wall-ms", 0);
    cfg.record_schedule = true;

    const auto res = run_experiment(cfg);
    std::printf(
        "steps=%llu finished=%s surviving-finished=%s crashed=%u "
        "livelock=%s starvation=%s deadline-expired=%s\n",
        static_cast<unsigned long long>(res.steps),
        res.finished ? "yes" : "no",
        res.all_surviving_finished ? "yes" : "no", res.crashed,
        res.livelock ? "yes" : "no", res.starvation ? "yes" : "no",
        res.deadline_expired ? "yes" : "no");
    if (!res.progress_diagnosis.empty()) {
        std::printf("--- diagnosis ---\n%s", res.progress_diagnosis.c_str());
    }
    if (f.count("replay")) {
        // Re-run the recorded schedule on a fresh system and check that the
        // stuck execution reproduces step for step.
        ExperimentConfig rcfg = cfg;
        rcfg.replay = res.schedule;
        const auto second = run_experiment(rcfg);
        const bool same = second.steps == res.steps &&
                          second.schedule == res.schedule &&
                          second.crashed == res.crashed &&
                          second.livelock == res.livelock &&
                          second.starvation == res.starvation;
        std::printf("replay of %zu recorded choices: %s\n",
                    res.schedule.size(), same ? "identical" : "DIVERGED");
        if (!same) {
            return 1;
        }
    }
    return 0;
}

int cmd_adversary(const std::map<std::string, std::string>& f) {
    adversary::AdversaryConfig cfg;
    cfg.lock = flag_lock(f);
    cfg.protocol = flag_protocol(f);
    cfg.n = static_cast<std::uint32_t>(flag_u64(f, "n", 64));
    cfg.f = static_cast<std::uint32_t>(flag_u64(f, "f", 1));
    const auto res = adversary::run_adversary(cfg);
    if (!res.completed) {
        std::printf("construction incomplete: %s\n", res.note.c_str());
        return 1;
    }
    std::printf(
        "r=%llu (log3(n/f)=%.2f)  survivor-expanding=%llu  "
        "reader-exit-max=%llu  writer-entry=%llu  growth-max=%.2f  "
        "lemma1-violations=%llu  lemma4=%s\n",
        static_cast<unsigned long long>(res.r), res.log3_bound,
        static_cast<unsigned long long>(res.survivor_expanding_steps),
        static_cast<unsigned long long>(res.max_reader_exit_rmrs),
        static_cast<unsigned long long>(res.writer_entry_rmrs),
        res.max_growth_factor,
        static_cast<unsigned long long>(res.lemma1_violations),
        res.lemma4_holds ? "ok" : "VIOLATED");
    return 0;
}

int cmd_explore(const std::map<std::string, std::string>& f) {
    ExperimentConfig cfg;
    cfg.lock = flag_lock(f);
    cfg.protocol = flag_protocol(f);
    cfg.n = static_cast<std::uint32_t>(flag_u64(f, "n", 2));
    cfg.m = static_cast<std::uint32_t>(flag_u64(f, "m", 1));
    cfg.f = static_cast<std::uint32_t>(flag_u64(f, "f", 1));
    cfg.passages = flag_u64(f, "passages", 1);
    const int depth = static_cast<int>(flag_u64(f, "depth", 10));
    sim::ExploreOptions opt;
    opt.branch_depth = depth;
    opt.finish_budget = 100'000;
    // Default off: plain `lab explore` keeps the historical full-tree
    // schedule counts; --reduce 1 switches on partial-order reduction.
    opt.reduce = flag_u64(f, "reduce", 0) != 0;
    opt.jobs = static_cast<unsigned>(flag_u64(f, "jobs", 1));
    const auto res = sim::explore(scenario_factory(cfg), opt);
    std::printf("schedules=%llu violations=%llu incomplete=%llu "
                "truncated=%llu\n",
                static_cast<unsigned long long>(res.schedules_explored),
                static_cast<unsigned long long>(res.violations),
                static_cast<unsigned long long>(res.incomplete_runs),
                static_cast<unsigned long long>(res.truncated_runs));
    if (!res.first_violation.empty()) {
        std::printf("first violation: %s\n", res.first_violation.c_str());
    }
    return res.ok() ? 0 : 1;
}

int cmd_metrics(const std::map<std::string, std::string>& f) try {
    namespace perf = rwr::native::perf;
    namespace bench = rwr::harness::bench;
    namespace json = rwr::harness::json;

    perf::PerfConfig cfg;
    const auto lit = f.find("lock");
    cfg.lock = perf::perf_lock_from(lit == f.end() ? "af" : lit->second);
    cfg.readers = static_cast<std::uint32_t>(flag_u64(f, "n", 2));
    cfg.writers = static_cast<std::uint32_t>(flag_u64(f, "m", 1));
    cfg.f = static_cast<std::uint32_t>(flag_u64(f, "f", 0));
    cfg.duration_ms = static_cast<std::uint32_t>(flag_u64(f, "ms", 200));

    const auto res = perf::run_perf(cfg);
    std::printf(
        "lock=%s n=%u m=%u f=%u ms=%u  reader_ops=%llu writer_ops=%llu "
        "throughput=%.0f ops/s  telemetry=%s\n",
        perf::to_string(cfg.lock), cfg.readers, cfg.writers,
        cfg.resolved_f(), cfg.duration_ms,
        static_cast<unsigned long long>(res.reader_ops),
        static_cast<unsigned long long>(res.writer_ops),
        res.throughput_ops(),
        rwr::native::telemetry_enabled() ? "on" : "off (RWR_TELEMETRY=0)");

    Table c({"counter", "value"});
    for (std::uint32_t i = 0; i < rwr::native::kTelemetryCounters; ++i) {
        const auto ctr = static_cast<rwr::native::TelemetryCounter>(i);
        c.row({rwr::native::to_string(ctr),
               fmt(res.telemetry.counters[i])});
    }
    c.print();

    Table l({"latency (sampled)", "samples", "p50 ns", "p90 ns", "p99 ns",
             "max ns"});
    for (std::uint32_t i = 0; i < rwr::native::kTelemetryHistos; ++i) {
        const auto h = static_cast<rwr::native::TelemetryHisto>(i);
        if (res.telemetry.samples(h) == 0) {
            continue;
        }
        l.row({rwr::native::to_string(h), fmt(res.telemetry.samples(h)),
               fmt(res.telemetry.quantile_ns(h, 0.50)),
               fmt(res.telemetry.quantile_ns(h, 0.90)),
               fmt(res.telemetry.quantile_ns(h, 0.99)),
               fmt(res.telemetry.quantile_ns(h, 1.0))});
    }
    l.print();

    const auto jit = f.find("json");
    if (jit != f.end()) {
        auto doc = bench::make_doc("metrics");
        auto& results = doc.set("results", json::Value::array());
        auto row = bench::key_row({.lock = perf::to_string(cfg.lock),
                                   .n = cfg.readers, .m = cfg.writers,
                                   .f = cfg.resolved_f(),
                                   .threads = cfg.readers + cfg.writers});
        row.set("duration_ms", cfg.duration_ms);
        row.set("reader_ops", res.reader_ops);
        row.set("writer_ops", res.writer_ops);
        row.set("throughput_ops", res.throughput_ops());
        row.set("latency_ns", bench::latency_to_json(res.telemetry));
        row.set("telemetry", bench::telemetry_to_json(res.telemetry));
        results.push_back(std::move(row));
        bench::write_file(jit->second, doc);
        std::printf("wrote %s\n", jit->second.c_str());
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "metrics: " << e.what() << "\n";
    return 2;
}

void usage() {
    std::puts(
        "usage: lab <command> [--flag value ...]\n"
        "  tradeoff   measure per-section RMRs  (--lock --protocol --n --m "
        "--f --passages --cs-steps --seed)\n"
        "  adversary  run the Theorem 5 construction (--lock --protocol "
        "--n --f)\n"
        "  explore    exhaustive schedule search (--reduce 1 for "
        "partial-order reduction, --jobs N) (--lock --n --m --f "
        "--depth)\n"
        "  faults     crash/stall injection + livelock watchdog (--crash PID "
        "--section entry|critical|exit --step K [--stall-steps S] "
        "[--window W] [--wall-ms MS] [--replay 1])\n"
        "  metrics    native throughput + live lock telemetry (--lock "
        "af|centralized|faa|phase-fair --n --m --f --ms [--json PATH])\n"
        "  list       list available locks");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const auto flags = parse_flags(argc, argv, 2);
    if (cmd == "tradeoff") {
        return cmd_tradeoff(flags);
    }
    if (cmd == "adversary") {
        return cmd_adversary(flags);
    }
    if (cmd == "explore") {
        return cmd_explore(flags);
    }
    if (cmd == "faults") {
        return cmd_faults(flags);
    }
    if (cmd == "metrics") {
        return cmd_metrics(flags);
    }
    if (cmd == "list") {
        for (const auto kind : rwr::harness::all_lock_kinds()) {
            std::puts(rwr::harness::to_string(kind).c_str());
        }
        return 0;
    }
    usage();
    return 2;
}
