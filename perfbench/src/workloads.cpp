#include "workloads.hpp"

#include <time.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "dist/sim_table.hpp"
#include "harness/experiment.hpp"
#include "histogram.hpp"
#include "ledger.hpp"
#include "mutex/abort_experiment.hpp"
#include "mutex/explore_scenario.hpp"
#include "mutex/jj_amortized.hpp"
#include "mutex/sim_mutex.hpp"
#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/shared_mutex.hpp"
#include "native/telemetry.hpp"
#include "recover/recover_experiment.hpp"
#include "sim/por.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace {

namespace sim = rwr::sim;
namespace harness = rwr::harness;
namespace native = rwr::native;
namespace dist = rwr::dist;
using rwr::Protocol;

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }


/// Records an already-timed span under `id` (0 = a fresh one); returns the
/// id, or 0 without a tracer.
std::uint64_t record_span(Tracer* t, const char* name, std::int64_t start,
                          std::int64_t end, std::uint64_t parent,
                          std::uint64_t request, std::uint32_t thread,
                          std::uint64_t id = 0) {
    if (t == nullptr) {
        return 0;
    }
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.id = id != 0 ? id : t->next_id();
    s.parent = parent;
    s.request = request;
    s.thread = thread;
    t->record(s);
    return s.id;
}

bool g_contended = false;

/// Threads for the native workloads: one, or nproc capped at 4 when
/// contended.
unsigned worker_threads() {
    if (!g_contended) {
        return 1;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : std::min(hc, 4u);
}

/// Warm-up passages of native-rw's set-up and warm-up ops of
/// service-loopback's: each about 15 ms.
constexpr std::uint64_t kSetupPassages = 1u << 16;
constexpr std::uint64_t kSetupServiceOps = 1u << 18;

// ===========================================================================
// Simulator layers, measured on one factory-built scenario at a time
// ===========================================================================

/// Recorded (pid, op) entries kept per scenario for the Memory::apply
/// replay; caps memory at a few tens of MiB on the largest cells.
constexpr std::size_t kReplayCap = 1u << 20;

struct SimLayerAcc {
    std::vector<double> build_us;
    std::uint64_t scenarios = 0;
    std::uint64_t vars = 0;
    std::uint64_t steps = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t rmr_steps = 0;
    double run_ns = 0;
    std::uint64_t replay_ops = 0;
    double replay_ns = 0;
    std::array<std::array<std::uint64_t, kComponents>, 2> rmrs{};
    std::uint64_t passages[2] = {0, 0};  ///< Reader, writer.
};

/// Builds one scenario, runs it to completion under a seeded random
/// scheduler with the component ledger and op recorder attached, and
/// replays the recorded ops through a fresh Memory. Returns the run's
/// Memory::total_rmrs().
std::uint64_t probe_scenario(const sim::ScenarioFactory& factory,
                             std::uint64_t sched_seed, SimLayerAcc& acc,
                             Outcome& out, Tracer* t, std::uint64_t parent,
                             std::uint64_t request) {
    const std::int64_t b0 = now_ns();
    sim::Scenario sc = factory();
    const std::int64_t b1 = now_ns();
    record_span(t, "harness::scenario_factory", b0, b1, parent, request, 0);
    acc.build_us.push_back(static_cast<double>(b1 - b0) / 1e3);

    const rwr::Memory& mem = sc.sys->memory();
    ++acc.scenarios;
    acc.vars += mem.num_variables();
    const VarImage image = snapshot_vars(mem);
    ComponentLedger ledger(mem);
    OpRecorder recorder(kReplayCap);
    sc.sys->add_observer(&ledger);
    sc.sys->add_observer(&recorder);

    sim::RandomScheduler sched(sched_seed);
    const std::int64_t r0 = now_ns();
    const sim::RunResult rr = sim::run(*sc.sys, sched, 50'000'000);
    const std::int64_t r1 = now_ns();
    record_span(t, "sim::run", r0, r1, parent, request, 0);
    acc.run_ns += static_cast<double>(r1 - r0);
    acc.steps += rr.steps;
    acc.mem_ops += ledger.mem_ops();
    acc.rmr_steps += ledger.rmr_steps();
    out.check(rr.all_finished, "probe scenario did not finish");
    out.check(ledger.total_rmrs() == mem.total_rmrs(),
              "component RMRs do not sum to Memory::total_rmrs()");
    for (int role = 0; role < 2; ++role) {
        for (std::size_t c = 0; c < kComponents; ++c) {
            acc.rmrs[role][c] +=
                ledger.rmrs(role, static_cast<Component>(c));
        }
    }
    for (rwr::ProcId id = 0; id < sc.sys->num_processes(); ++id) {
        const sim::Process& p = sc.sys->process(id);
        acc.passages[p.is_reader() ? 0 : 1] += p.completed_passages();
    }

    const std::int64_t a0 = now_ns();
    const ReplayResult rp = replay(image, recorder.ops());
    record_span(t, "Memory::apply (replay)", a0, now_ns(), parent, request,
                0);
    out.check(rp.rmrs == recorder.recorded_rmrs(),
              "replayed op stream incurred different RMRs");
    acc.replay_ops += rp.ops;
    acc.replay_ns += rp.wall_ns;
    return mem.total_rmrs();
}

void emit_sim_layers(const SimLayerAcc& acc, bool components, Outcome& out) {
    const double steps = static_cast<double>(acc.steps);
    const double step_ns = ratio(acc.run_ns, steps);
    const double apply_ns =
        ratio(acc.replay_ns, static_cast<double>(acc.replay_ops));
    out.layer("sim.build_us", median(acc.build_us), "us");
    out.layer("rmr.vars_per_scenario",
              ratio(static_cast<double>(acc.vars),
                    static_cast<double>(acc.scenarios)),
              "count");
    out.layer("sim.step_ns", step_ns, "ns");
    out.layer("rmr.apply_ns", apply_ns, "ns");
    // Per step: apply is paid only by the steps that touch memory.
    out.layer("sim.engine_ns",
              step_ns - apply_ns * ratio(static_cast<double>(acc.mem_ops),
                                         steps),
              "ns");
    if (!components) {
        return;
    }
    const auto per = [&](int role, Component c) {
        return ratio(static_cast<double>(
                         acc.rmrs[role][static_cast<std::size_t>(c)]),
                     static_cast<double>(acc.passages[role]));
    };
    out.layer("rmr.rmr_step_ratio",
              ratio(static_cast<double>(acc.rmr_steps), steps), "ratio");
    out.layer("core.counter_rmrs_per_reader_passage",
              per(0, Component::Counter), "RMRs");
    out.layer("core.rsig_rmrs_per_reader_passage", per(0, Component::Rsig),
              "RMRs");
    out.layer("core.wl_rmrs_per_writer_passage", per(1, Component::Wl),
              "RMRs");
    out.layer("core.wsig_rmrs_per_writer_passage", per(1, Component::Wsig),
              "RMRs");
    out.layer("core.counter_rmrs_per_writer_passage",
              per(1, Component::Counter), "RMRs");
    out.layer("core.local_steps_per_passage",
              ratio(steps - static_cast<double>(acc.rmr_steps),
                    static_cast<double>(acc.passages[0] + acc.passages[1])),
              "steps");
}

// ===========================================================================
// sim-sweep
// ===========================================================================

/// E1-scale A_f cells. The ME checker scans every process on every step, so
/// these run without it (as bench_tradeoff does at this n) and the checked
/// cells below run at a size where the checker is not the whole cost.
constexpr std::uint32_t kSweepN = 1024;
constexpr std::uint32_t kSweepCheckedN = 64;
constexpr std::uint32_t kSweepWriters = 2;
constexpr std::uint64_t kSweepPassages = 2;

struct SweepPlan {
    std::vector<harness::ExperimentConfig> af;
    rwr::recover::RecoverExperimentConfig rec;
    rwr::mutex::AbortExperimentConfig abort;
    dist::DistSimConfig dist;
};

SweepPlan sweep_plan(std::uint64_t seed) {
    SweepPlan plan;
    std::uint64_t stream = 0;
    const auto next_seed = [&] { return sim::stream_seed(seed, stream++); };
    for (const std::uint32_t n : {kSweepN, kSweepCheckedN}) {
        const auto log_n = static_cast<std::uint32_t>(std::bit_width(n) - 1);
        const auto sqrt_n = static_cast<std::uint32_t>(
            std::lround(std::sqrt(static_cast<double>(n))));
        for (const Protocol proto : {Protocol::WriteBack, Protocol::Dsm}) {
            for (const std::uint32_t f : {1u, log_n, sqrt_n}) {
                harness::ExperimentConfig cfg;
                cfg.lock = proto == Protocol::Dsm ? harness::LockKind::AfDsm
                                                  : harness::LockKind::Af;
                cfg.protocol = proto;
                cfg.n = n;
                cfg.m = kSweepWriters;
                cfg.f = f;
                cfg.passages = kSweepPassages;
                cfg.sched = harness::SchedKind::Random;
                cfg.seed = next_seed();
                cfg.check_mutual_exclusion = n == kSweepCheckedN;
                cfg.wall_deadline_ms = 60'000;
                plan.af.push_back(cfg);
            }
        }
    }

    auto& rec = plan.rec;
    rec.lock = rwr::recover::RecoverLockKind::RwLock;
    rec.n = 16;
    rec.m = 2;
    rec.f = 4;
    rec.passages = 3;
    rec.cs_steps = 2;
    rec.sched = harness::SchedKind::Random;
    rec.seed = next_seed();
    constexpr rwr::Section kCrashSections[3] = {
        rwr::Section::Entry, rwr::Section::Critical, rwr::Section::Exit};
    for (std::uint32_t i = 0; i < 6; ++i) {
        rec.faults.crash_restart(static_cast<rwr::ProcId>(i * 3 % 18),
                                 kCrashSections[i % 3], 1 + i / 3);
    }
    rec.faults.require_all_fired();

    auto& ab = plan.abort;
    ab.m = 16;
    ab.builder = [m = ab.m](rwr::Memory& mem) {
        return std::unique_ptr<rwr::mutex::SimMutex>(
            std::make_unique<rwr::mutex::JJAmortizedMutex>(mem, "af.WL", m));
    };
    ab.passages = 32;
    ab.cs_steps = 2;
    ab.workload.abort_rate = 0.5;
    ab.workload.seed = next_seed();
    ab.sched = rwr::mutex::AbortSched::ObliviousRandom;
    ab.sched_seed = next_seed();

    auto& ds = plan.dist;
    ds.table.shards = 4;
    ds.table.locks_per_shard = 2;
    ds.table.sessions = 32;
    ds.ops_per_session = 32;
    ds.reader_pct = 90;
    ds.seed = next_seed();
    return plan;
}

struct RunnerTally {
    std::uint64_t steps = 0;
    double wall_s = 0;
    void add(std::uint64_t s, double w) {
        steps += s;
        wall_s += w;
    }
};

/// The four runners, in call order, and their per-layer metric names.
enum Runner { kAfRunner, kRecoverRunner, kAbortRunner, kDistRunner };
constexpr const char* kRunnerMetric[4] = {
    "harness.af_steps_per_s", "recover.steps_per_s",
    "mutex.abort_steps_per_s", "dist.sim_steps_per_s"};

struct SweepTally {
    std::uint64_t steps = 0;
    std::uint64_t passages = 0;
    // Exact, per seed: A_f passage RMRs by role, dist network RMRs.
    std::uint64_t reader_rmrs = 0;
    std::uint64_t reader_passages = 0;
    std::uint64_t writer_rmrs = 0;
    std::uint64_t writer_passages = 0;
    std::uint64_t net_rmrs = 0;
    std::uint64_t net_ops = 0;
    std::array<RunnerTally, 4> runners;

    [[nodiscard]] std::array<std::uint64_t, 6> exact() const {
        return {reader_rmrs, reader_passages, writer_rmrs,
                writer_passages, net_rmrs,        net_ops};
    }
};

/// The plan seed of one round of a run.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
    return sim::stream_seed(seed, round);
}

/// reader_rmrs, reader_passages, writer_rmrs, writer_passages, net_rmrs,
/// net_ops of the first round of the default seed.
constexpr std::array<std::uint64_t, 6> kSweepGolden = {1085381, 13056, 14917,
                                                       48,      9835,  1024};

/// One pass over every cell of the plan: the four runners, each called
/// from outside and checked.
SweepTally sweep_round(const SweepPlan& plan, Outcome& out, Tracer* t,
                       std::uint64_t round, SimLayerAcc* layers) {
    SweepTally tally;
    const std::int64_t round_start = now_ns();
    const std::uint64_t round_span = t != nullptr ? t->next_id() : 0;
    std::uint64_t request = round * 1000;
    // Calls one runner, spans and tallies it.
    const auto timed = [&](Runner r, const char* name, auto&& call) {
        const std::int64_t t0 = now_ns();
        auto res = call();
        const std::int64_t t1 = now_ns();
        record_span(t, name, t0, t1, round_span, request, 0);
        tally.runners[r].add(res.steps, static_cast<double>(t1 - t0) * 1e-9);
        tally.steps += res.steps;
        return res;
    };

    for (const auto& cfg : plan.af) {
        ++request;
        const std::uint64_t cell_passages =
            std::uint64_t{cfg.n + cfg.m} * cfg.passages;
        out.attempt(cell_passages);
        try {
            const auto res =
                timed(kAfRunner, "harness::run_experiment",
                      [&] { return harness::run_experiment(cfg); });
            tally.passages +=
                res.readers.num_passages + res.writers.num_passages;
            out.check(res.finished && !res.deadline_expired,
                      "sim-sweep: A_f cell did not finish", cell_passages);
            out.fail("sim-sweep: A_f mutual exclusion violations",
                     res.me_violations);
            std::uint64_t reader = 0;
            std::uint64_t writer = 0;
            for (std::size_t pid = 0; pid < res.proc_rmrs.size(); ++pid) {
                (pid < cfg.n ? reader : writer) += res.proc_rmrs[pid];
            }
            // Passage records (per section) must reconcile with Memory's
            // per-process ledger: every RMR charged exactly once.
            const auto from_passages = [](const harness::RoleStats& rs) {
                return static_cast<std::uint64_t>(std::llround(
                    rs.mean_passage_rmrs *
                    static_cast<double>(rs.num_passages)));
            };
            out.check(from_passages(res.readers) + from_passages(res.writers) ==
                          reader + writer,
                      "sim-sweep: passage RMRs do not sum to Memory's "
                      "per-process RMRs");
            tally.reader_rmrs += reader;
            tally.writer_rmrs += writer;
            tally.reader_passages += res.readers.num_passages;
            tally.writer_passages += res.writers.num_passages;
            if (layers != nullptr) {
                const std::uint64_t replica = probe_scenario(
                    harness::scenario_factory(cfg), cfg.seed, *layers, out, t,
                    round_span, request);
                out.check(replica == reader + writer,
                          "sim-sweep: traced replica RMRs differ from the "
                          "untraced runner's");
            }
        } catch (const std::exception& e) {
            out.fail(std::string("sim-sweep: A_f cell threw: ") + e.what(),
                     cell_passages);
        }
    }

    ++request;
    const auto& rc = plan.rec;
    const std::uint64_t rec_passages = std::uint64_t{rc.n + rc.m} * rc.passages;
    out.attempt(rec_passages);
    try {
        const auto res =
            timed(kRecoverRunner, "recover::run_recover_experiment",
                  [&] { return rwr::recover::run_recover_experiment(rc); });
        tally.passages += res.total_passages;
        out.check(res.all_surviving_finished,
                  "sim-sweep: recoverable cell did not finish", rec_passages);
        out.fail("sim-sweep: recoverable RME violations", res.rme_violations);
        out.fail("sim-sweep: recoverable ME violations", res.me_violations);
        out.check(res.restarts > 0, "sim-sweep: no crash-restart happened");
    } catch (const std::exception& e) {
        out.fail(std::string("sim-sweep: recoverable cell threw: ") + e.what(),
                 rec_passages);
    }

    ++request;
    const auto& ab = plan.abort;
    const std::uint64_t ab_passages = std::uint64_t{ab.m} * ab.passages;
    out.attempt(ab_passages);
    try {
        const auto res =
            timed(kAbortRunner, "mutex::run_abort_experiment",
                  [&] { return rwr::mutex::run_abort_experiment(ab); });
        tally.passages += res.amortized.passages;
        out.check(res.finished, "sim-sweep: abort cell did not finish",
                  ab_passages);
        out.fail("sim-sweep: abort cell ME violations", res.me_violations);
        out.check(res.memory_rmrs == res.amortized.episode_rmrs,
                  "sim-sweep: episode RMRs do not sum to Memory's total");
        out.check(res.amortized.aborted_episodes > 0,
                  "sim-sweep: abort cell never aborted");
    } catch (const std::exception& e) {
        out.fail(std::string("sim-sweep: abort cell threw: ") + e.what(),
                 ab_passages);
    }

    ++request;
    const auto& ds = plan.dist;
    const std::uint64_t ds_ops =
        std::uint64_t{ds.table.sessions} * ds.ops_per_session;
    out.attempt(ds_ops);
    try {
        const auto res = timed(kDistRunner, "dist::run_dist_sim",
                               [&] { return dist::run_dist_sim(ds); });
        tally.passages += res.total_ops;
        out.check(res.finished, "sim-sweep: dist cell did not finish", ds_ops);
        out.fail("sim-sweep: dist witness violations", res.witness_violations);
        std::uint64_t by_session = 0;
        for (const auto r : res.session_rmrs) {
            by_session += r;
        }
        out.check(by_session == res.network_rmrs,
                  "sim-sweep: session RMRs do not sum to the network total");
        tally.net_rmrs += res.network_rmrs;
        tally.net_ops += res.total_ops;
    } catch (const std::exception& e) {
        out.fail(std::string("sim-sweep: dist cell threw: ") + e.what(),
                 ds_ops);
    }
    record_span(t, "sim-sweep round", round_start, now_ns(), 0, round * 1000,
                0, round_span);
    return tally;
}

double setup_sim_sweep(std::uint64_t seed) {
    const std::int64_t t0 = now_ns();
    const SweepPlan plan = sweep_plan(round_seed(seed, 0));
    for (const auto& cfg : plan.af) {
        if (cfg.n == kSweepN) {
            const sim::Scenario sc = harness::scenario_factory(cfg)();
            (void)sc;
        }
    }
    return seconds_since(t0);
}

double measure_sim_sweep(std::uint64_t seed, double seconds, Tracer* t,
                         Outcome& out) {
    SimLayerAcc layers;
    std::vector<double> step_rates;
    std::vector<double> passage_rates;
    std::vector<double> cpu_per_passage;
    SweepTally first;
    std::array<RunnerTally, 4> runners;
    const std::int64_t start = now_ns();
    for (std::uint64_t round = 0; round == 0 || seconds_since(start) < seconds;
         ++round) {
        // Every round draws fresh schedules, so a run's rate averages over
        // many of them instead of hanging on one seed's interleavings.
        const SweepPlan plan = sweep_plan(round_seed(seed, round));
        const double cpu0 = cpu_seconds();
        const std::int64_t r0 = now_ns();
        const SweepTally tally =
            sweep_round(plan, out, t, round, t != nullptr ? &layers : nullptr);
        const double wall = seconds_since(r0);
        const auto passages = static_cast<double>(tally.passages);
        step_rates.push_back(static_cast<double>(tally.steps) / wall);
        passage_rates.push_back(passages / wall);
        cpu_per_passage.push_back(
            ratio((cpu_seconds() - cpu0) * 1e9, passages));
        if (round == 0) {
            first = tally;
        }
        for (std::size_t r = 0; r < runners.size(); ++r) {
            runners[r].add(tally.runners[r].steps, tally.runners[r].wall_s);
        }
    }
    // The expected values belong to the default seed: check them on every
    // run, with one extra untimed round when another seed was measured.
    const SweepTally golden =
        seed == kDefaultSeed
            ? first
            : sweep_round(sweep_plan(round_seed(kDefaultSeed, 0)), out,
                          nullptr, 0, nullptr);
    if (golden.exact() != kSweepGolden) {
        std::string got;
        for (const auto v : golden.exact()) {
            got += (got.empty() ? "" : ", ") + std::to_string(v);
        }
        out.fail("sim-sweep: exact metrics of the default seed are {" + got +
                 "}, not the recorded values");
    }

    if (t != nullptr) {
        for (std::size_t r = 0; r < runners.size(); ++r) {
            out.layer(kRunnerMetric[r],
                      ratio(static_cast<double>(runners[r].steps),
                            runners[r].wall_s),
                      "steps/s");
        }
        emit_sim_layers(layers, /*components=*/true, out);
        return median(passage_rates);
    }

    const std::string rounds =
        "median of " + std::to_string(passage_rates.size()) + " rounds";
    out.e2e("sim_steps_per_s", median(step_rates), "steps/s", rounds);
    out.e2e("passages_per_s", median(passage_rates), "1/s", rounds);
    out.e2e("reader_rmrs_per_passage",
            ratio(static_cast<double>(first.reader_rmrs),
                  static_cast<double>(first.reader_passages)),
            "RMRs");
    out.e2e("writer_rmrs_per_passage",
            ratio(static_cast<double>(first.writer_rmrs),
                  static_cast<double>(first.writer_passages)),
            "RMRs");
    out.e2e("network_rmrs_per_op",
            ratio(static_cast<double>(first.net_rmrs),
                  static_cast<double>(first.net_ops)),
            "RMRs");
    out.e2e("cpu_ns_per_passage", median(cpu_per_passage), "ns", rounds);
    return median(passage_rates);
}

// ===========================================================================
// sim-explore
// ===========================================================================

/// Free branching depth of the A_f (n=2, m=1) DPOR exploration.
constexpr int kExploreAfDepth = 34;
constexpr int kExploreTournamentDepth = 28;
/// Seeded random schedules per round (the seed's share of the workload).
constexpr std::uint64_t kExploreRandomRuns = 200;
/// Passages per explored schedule: 3 processes x 1 passage, both scenarios.
constexpr std::uint64_t kExplorePassagesPerSchedule = 3;

struct ExploreScenarios {
    sim::ScenarioFactory af;
    sim::ScenarioFactory tournament;
};

ExploreScenarios explore_scenarios() {
    harness::ExperimentConfig cfg;
    cfg.lock = harness::LockKind::Af;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 1;
    return {harness::scenario_factory(cfg),
            rwr::mutex::mutex_scenario_factory(
                [](rwr::Memory& mem, std::uint32_t m) {
                    return std::unique_ptr<rwr::mutex::SimMutex>(
                        std::make_unique<rwr::mutex::TournamentSimMutex>(
                            mem, "mx", m));
                },
                3, 1, 1)};
}

/// DPOR schedules of the two scenarios; the same for every seed.
constexpr std::uint64_t kExploreGolden = 22312;

struct ExploreCounters {
    std::uint64_t rebuilds = 0;
    std::uint64_t steps = 0;
    double rebuild_ns = 0;
};

class StepCounter final : public sim::StepObserver {
   public:
    explicit StepCounter(std::uint64_t* steps) : steps_(steps) {}
    void on_step(const sim::System& /*sys*/, const sim::Process& /*p*/,
                 const rwr::Op& /*op*/, const rwr::OpResult& /*res*/) override {
        ++*steps_;
    }

   private:
    std::uint64_t* steps_;
};

/// Wraps a factory so every rebuild is counted (and, traced, timed and
/// spanned) and every executed step is counted by an observer that rides
/// in the scenario's `extra`.
sim::ScenarioFactory counting_factory(sim::ScenarioFactory inner,
                                      ExploreCounters* c, Tracer* t,
                                      std::uint64_t parent) {
    return [inner = std::move(inner), c, t, parent]() {
        const std::int64_t t0 = t != nullptr ? now_ns() : 0;
        sim::Scenario sc = inner();
        if (t != nullptr) {
            const std::int64_t t1 = now_ns();
            c->rebuild_ns += static_cast<double>(t1 - t0);
            if (c->rebuilds % 64 == 0) {  // Spans for a sample only.
                record_span(t, "explore rebuild", t0, t1, parent,
                            c->rebuilds, 0);
            }
        }
        ++c->rebuilds;
        struct Keep {
            std::shared_ptr<void> inner;
            StepCounter counter;
        };
        auto keep = std::make_shared<Keep>(Keep{std::move(sc.extra),
                                                StepCounter(&c->steps)});
        sc.sys->add_observer(&keep->counter);
        sc.extra = std::move(keep);
        return sc;
    };
}

double setup_sim_explore(std::uint64_t /*seed*/) {
    const std::int64_t t0 = now_ns();
    const ExploreScenarios s = explore_scenarios();
    const sim::Scenario a = s.af();
    const sim::Scenario b = s.tournament();
    (void)a;
    (void)b;
    return seconds_since(t0);
}

double measure_sim_explore(std::uint64_t seed, double seconds, Tracer* t,
                           Outcome& out) {
    const ExploreScenarios scen = explore_scenarios();
    ExploreCounters counters;
    std::vector<double> schedule_rates;
    std::vector<double> step_rates;
    std::vector<double> passage_rates;
    std::uint64_t first_dpor = 0;
    std::uint64_t schedules = 0;
    std::vector<double> cpu_per_passage;
    double explore_ns = 0;
    const std::int64_t start = now_ns();
    for (std::uint64_t round = 0; round == 0 || seconds_since(start) < seconds;
         ++round) {
        const std::uint64_t steps0 = counters.steps;
        const double cpu0 = cpu_seconds();
        const std::int64_t r0 = now_ns();
        const auto explore_one = [&](const char* name,
                                     const sim::ScenarioFactory& inner,
                                     int depth) {
            const std::int64_t e0 = now_ns();
            const std::uint64_t span = t != nullptr ? t->next_id() : 0;
            sim::ExploreOptions opt;
            opt.branch_depth = depth;
            opt.reduce = true;
            opt.jobs = 1;
            const sim::ExploreResult r =
                sim::explore(counting_factory(inner, &counters, t, span), opt);
            const std::int64_t e1 = now_ns();
            record_span(t, name, e0, e1, 0, round, 0, span);
            explore_ns += static_cast<double>(e1 - e0);
            return r;
        };
        const sim::ExploreResult a =
            explore_one("sim::explore A_f n=2 m=1", scen.af, kExploreAfDepth);
        const sim::ExploreResult b = explore_one(
            "sim::explore tournament m=3", scen.tournament,
            kExploreTournamentDepth);
        const double dpor_wall = seconds_since(r0);
        const std::int64_t q0 = now_ns();
        const sim::ExploreResult c = sim::explore_random(
            counting_factory(scen.af, &counters, t, 0), kExploreRandomRuns,
            sim::stream_seed(seed, round), 100'000);
        explore_ns += static_cast<double>(now_ns() - q0);
        const double wall = seconds_since(r0);

        std::uint64_t round_passages = 0;
        for (const sim::ExploreResult* r : {&a, &b, &c}) {
            const std::uint64_t attempted =
                r->schedules_explored * kExplorePassagesPerSchedule;
            out.attempt(attempted);
            out.check(r->ok(), "sim-explore: " +
                                   (r->first_violation.empty()
                                        ? std::string("truncated runs")
                                        : r->first_violation),
                      r->violations + r->truncated_runs);
            out.fail("sim-explore: schedules hit the step budget",
                     r->incomplete_runs * kExplorePassagesPerSchedule);
            round_passages += attempted -
                              r->incomplete_runs * kExplorePassagesPerSchedule;
            schedules += r->schedules_explored;
        }
        const std::uint64_t dpor = a.schedules_explored + b.schedules_explored;
        if (round == 0) {
            first_dpor = dpor;
        } else {
            out.check(dpor == first_dpor,
                      "sim-explore: DPOR schedule count changed between "
                      "rounds");
        }
        schedule_rates.push_back(static_cast<double>(dpor) / dpor_wall);
        step_rates.push_back(static_cast<double>(counters.steps - steps0) /
                             wall);
        passage_rates.push_back(static_cast<double>(round_passages) / wall);
        cpu_per_passage.push_back(ratio((cpu_seconds() - cpu0) * 1e9,
                                        static_cast<double>(round_passages)));
    }

    out.check(first_dpor == kExploreGolden,
              "sim-explore: schedules_explored is " +
                  std::to_string(first_dpor) + ", not the recorded value");
    if (t != nullptr) {
        out.layer("sim.explore_rebuilds_per_schedule",
                  ratio(static_cast<double>(counters.rebuilds),
                        static_cast<double>(schedules)),
                  "count");
        out.layer("sim.explore_rebuild_us",
                  ratio(counters.rebuild_ns / 1e3,
                        static_cast<double>(counters.rebuilds)),
                  "us");
        out.layer("sim.explore_rebuild_share",
                  ratio(counters.rebuild_ns, explore_ns), "ratio");
        out.layer("sim.explore_steps_per_schedule",
                  ratio(static_cast<double>(counters.steps),
                        static_cast<double>(schedules)),
                  "steps");
        SimLayerAcc layers;
        for (std::uint64_t i = 0; i < 200; ++i) {
            probe_scenario(scen.af, sim::stream_seed(seed, i), layers, out, t,
                           0, i);
        }
        emit_sim_layers(layers, /*components=*/false, out);
        return median(passage_rates);
    }

    const std::string rounds =
        "median of " + std::to_string(passage_rates.size()) + " rounds";
    out.e2e("sim_steps_per_s", median(step_rates), "steps/s", rounds);
    out.e2e("schedules_per_s", median(schedule_rates), "1/s", rounds);
    out.e2e("schedules_explored", static_cast<double>(first_dpor), "count");
    out.e2e("passages_per_s", median(passage_rates), "1/s", rounds);
    out.e2e("cpu_ns_per_passage", median(cpu_per_passage), "ns", rounds);
    return median(passage_rates);
}

// ===========================================================================
// Closed-loop runner for the native workloads
// ===========================================================================

struct alignas(64) PaddedCount {
    std::atomic<std::uint64_t> v{0};
};

constexpr int kWindowMs = 20;

/// A fixed block of the operations a passage is made of (seq_cst
/// read-modify-writes, exchanges and loads on private cache lines), run by
/// the worker itself every kEvery passages. A shared host changes how fast
/// the thread runs from one second to the next; it changes the block's
/// speed with it, so a passage's cost in blocks stays put.
class Calibration {
   public:
    static constexpr std::uint64_t kEvery = 1024;
    static constexpr std::uint64_t kIters = 256;

    void tick(std::uint64_t n) {
        if (n % kEvery != 0) {
            return;
        }
        const std::int64_t t0 = now_ns();
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < kIters; ++i) {
            lines_[0].v.fetch_add(1);
            lines_[1].v.exchange(i);
            sink += lines_[2].v.load();
        }
        lines_[2].v.store(sink);
        ns_.v.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                        std::memory_order_relaxed);
        blocks_.v.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t ns() const {
        return ns_.v.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t iters() const {
        return blocks_.v.load(std::memory_order_relaxed) * kIters;
    }

   private:
    std::array<PaddedCount, 3> lines_;
    PaddedCount ns_, blocks_;
};

struct LoopResult {
    std::vector<double> rates;   ///< Passages per second, per window.
    std::vector<double> cpu_ns;  ///< Process CPU ns per passage, per window.
    /// One thread only: a passage's wall time over a calibration
    /// iteration's, per window.
    std::vector<double> cost_cal;
    std::uint64_t total = 0;
    bool worker_threw = false;
    std::string error;

    [[nodiscard]] double median_rate() const { return median(rates); }

    /// passages_per_s, cpu_ns_per_passage and passage_cost_cal: medians
    /// over the windows, each noted with the spread of its windows. A
    /// thread on a shared host runs in fast and slow phases that take turns
    /// every 0.5-2 s, in a mix that changes by the minute; the first two
    /// follow the mix, the calibrated cost hardly does.
    void emit(Outcome& out) const {
        out.e2e("passages_per_s", median_rate(), "1/s", spread(rates));
        out.e2e("cpu_ns_per_passage", median(cpu_ns), "ns", spread(cpu_ns));
        out.e2e("passage_cost_cal", median(cost_cal), "cal",
                spread(cost_cal));
    }

    /// "p10/p50/p90 of N 20 ms windows: a / b / c".
    [[nodiscard]] static std::string spread(const std::vector<double>& v) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "p10/p50/p90 of %zu %d ms windows: %.4g / %.4g / %.4g",
                      v.size(), kWindowMs, quantile(v, 0.1), quantile(v, 0.5),
                      quantile(v, 0.9));
        return buf;
    }
};

/// Runs body(thread, stop, count, cal) on `threads` threads for `seconds`;
/// each body publishes its completed passages to `count` and ticks `cal`
/// after each. The first window is warm-up and excluded from the series.
LoopResult run_closed_loop(
    unsigned threads, double seconds,
    const std::function<void(unsigned, const std::atomic<bool>&,
                             std::atomic<std::uint64_t>&, Calibration&)>&
        body) {
    std::vector<PaddedCount> counts(threads);
    std::vector<Calibration> cals(threads);
    std::atomic<bool> stop{false};
    std::mutex err_mu;
    LoopResult res;
    const auto sum = [&] {
        std::uint64_t s = 0;
        for (const auto& c : counts) {
            s += c.v.load(std::memory_order_relaxed);
        }
        return s;
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([&, i] {
            try {
                body(i, stop, counts[i].v, cals[i]);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> g(err_mu);
                res.worker_threw = true;
                res.error = e.what();
            }
        });
    }
    const std::int64_t start = now_ns();
    std::int64_t prev_t = start;
    std::uint64_t prev_n = 0;
    double prev_cpu = cpu_seconds();
    std::uint64_t prev_cal_ns = 0;
    std::uint64_t prev_cal_iters = 0;
    while (seconds_since(start) < seconds) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kWindowMs));
        const std::int64_t now = now_ns();
        const std::uint64_t n = sum();
        const double cpu = cpu_seconds();
        const std::uint64_t cal_ns = cals[0].ns();
        const std::uint64_t cal_iters = cals[0].iters();
        if (prev_t != start) {
            const auto done = static_cast<double>(n - prev_n);
            const auto wall = static_cast<double>(now - prev_t);
            res.rates.push_back(done * 1e9 / wall);
            res.cpu_ns.push_back(ratio((cpu - prev_cpu) * 1e9, done));
            const auto d_cal = static_cast<double>(cal_ns - prev_cal_ns);
            if (threads == 1 && cal_iters > prev_cal_iters && done > 0) {
                res.cost_cal.push_back(
                    ((wall - d_cal) / done) /
                    (d_cal / static_cast<double>(cal_iters - prev_cal_iters)));
            }
        }
        prev_t = now;
        prev_n = n;
        prev_cpu = cpu;
        prev_cal_ns = cal_ns;
        prev_cal_iters = cal_iters;
    }
    stop.store(true);
    for (auto& th : pool) {
        th.join();
    }
    res.total = sum();
    return res;
}

/// "n=<samples> above=<samples past the percentile's bucket>".
std::string sample_note(const Histogram& h, double q) {
    return "n=" + std::to_string(h.count()) +
           " above=" + std::to_string(h.count_above(q));
}

/// p50 (and p99) of a histogram, each with its sample counts.
void emit_quantiles(Outcome& out, const std::string& prefix,
                    const Histogram& h, bool layer, bool p99 = true) {
    for (const double q : {0.50, 0.99}) {
        if (q == 0.99 && !p99) {
            break;
        }
        const std::string name = prefix + (q == 0.50 ? "_p50_ns" : "_p99_ns");
        if (layer) {
            out.layer(name, h.quantile(q), "ns", sample_note(h, q));
        } else {
            out.e2e(name, h.quantile(q), "ns", sample_note(h, q));
        }
    }
}

// ===========================================================================
// native-rw
// ===========================================================================

constexpr std::uint32_t kNativeReaders = 64;
constexpr std::uint32_t kNativeWriters = 8;
/// Version, 30 data words, checksum: four cache lines.
constexpr std::uint32_t kRecordWords = 32;

struct alignas(64) Record {
    std::array<std::atomic<std::uint64_t>, kRecordWords> w{};
};

std::uint64_t data_word(std::uint64_t version, std::uint32_t i) {
    return sim::splitmix64(version * kRecordWords + i);
}

void write_record(Record& r) {
    constexpr auto rx = std::memory_order_relaxed;
    const std::uint64_t v = r.w[0].load(rx) + 1;
    r.w[0].store(v, rx);
    std::uint64_t sum = v;
    for (std::uint32_t i = 1; i + 1 < kRecordWords; ++i) {
        const std::uint64_t d = data_word(v, i);
        r.w[i].store(d, rx);
        sum ^= d;
    }
    r.w[kRecordWords - 1].store(sum, rx);
}

/// False when the record is torn: a data word or the checksum does not
/// match the version read first.
bool read_record(const Record& r) {
    constexpr auto rx = std::memory_order_relaxed;
    const std::uint64_t v = r.w[0].load(rx);
    std::uint64_t sum = v;
    bool ok = true;
    for (std::uint32_t i = 1; i + 1 < kRecordWords; ++i) {
        const std::uint64_t d = r.w[i].load(rx);
        ok = ok && d == data_word(v, i);
        sum ^= d;
    }
    return ok && sum == r.w[kRecordWords - 1].load(rx);
}

struct NativeWorker {
    Histogram reader, writer;
    Histogram lock_shared, unlock_shared, lock, unlock;  // Traced.
    std::uint64_t torn = 0;
    std::uint64_t writes = 0;
};

/// Lock and record construction, then a fixed warm-up of seeded passages on
/// the calling thread: enough work that the set-up time is not a handful of
/// allocations the host's noise swamps.
double setup_native_rw(std::uint64_t seed) {
    const std::int64_t t0 = now_ns();
    native::AfSharedMutex mtx(kNativeReaders, kNativeWriters);
    auto rec = std::make_unique<Record>();
    write_record(*rec);
    std::uint64_t rng = sim::stream_seed(seed, 0);
    std::uint64_t torn = 0;
    for (std::uint64_t i = 0; i < kSetupPassages; ++i) {
        rng = sim::splitmix64(rng);
        if ((rng & 15) == 0) {
            std::unique_lock lk(mtx);
            write_record(*rec);
        } else {
            std::shared_lock lk(mtx);
            torn += read_record(*rec) ? 0 : 1;
        }
    }
    const double s = seconds_since(t0);
    if (torn != 0) {
        throw std::runtime_error("native-rw: torn read during set-up");
    }
    return s;
}

template <class F>
double ns_per_iter(std::uint64_t iters, F&& f) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = now_ns();
        for (std::uint64_t i = 0; i < iters; ++i) {
            f(i);
        }
        reps.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(iters));
    }
    return median(reps);
}

/// Round trip of a wake through two ParkingSpots: each side parks until
/// the other flips the turn and wakes it.
double park_wake_rtt_ns(std::uint64_t rounds) {
    native::ParkingSpot spot[2];
    std::atomic<int> turn{0};
    const auto await_turn = [&](int me) {
        native::Deadline dl = native::Deadline::infinite();
        while (turn.load() != me) {
            spot[me].park(dl, nullptr, [&] { return turn.load() == me; });
        }
    };
    const std::int64_t t0 = now_ns();
    std::thread other([&] {
        for (std::uint64_t i = 0; i < rounds; ++i) {
            await_turn(1);
            turn.store(0);
            spot[0].wake_all(nullptr);
        }
    });
    for (std::uint64_t i = 0; i < rounds; ++i) {
        turn.store(1);
        spot[1].wake_all(nullptr);
        await_turn(0);
    }
    other.join();
    return static_cast<double>(now_ns() - t0) / static_cast<double>(rounds);
}

void native_micro_layers(std::uint32_t k, std::uint32_t m, Outcome& out) {
    constexpr std::uint64_t kIters = 1'000'000;
    native::FArrayCounter counter(k);
    // Slot i % k alternates +1/-1 by parity, so the total returns to zero.
    const double add_ns = ns_per_iter(kIters, [&](std::uint64_t i) {
        counter.add(static_cast<std::uint32_t>(i % k), (i & 1) == 0 ? 1 : -1);
    });
    std::int64_t sink = 0;
    const double read_ns =
        ns_per_iter(kIters, [&](std::uint64_t) { sink += counter.read(); });
    out.layer("native.counter_add_ns", add_ns, "ns");
    out.layer("native.counter_read_ns", read_ns, "ns");
    out.check(counter.read() == 0 && sink == 0,
              "native-rw: f-array counter does not return to zero");
    native::TournamentMutex wl(m);
    out.layer("native.wl_passage_ns",
              ns_per_iter(kIters,
                          [&](std::uint64_t i) {
                              const auto slot =
                                  static_cast<std::uint32_t>(i % m);
                              wl.lock(slot);
                              wl.unlock(slot);
                          }),
              "ns");
    std::vector<double> rtts;
    for (int rep = 0; rep < 5; ++rep) {
        rtts.push_back(park_wake_rtt_ns(2000));
    }
    out.layer("native.park_wake_rtt_ns", median(rtts), "ns");
}

double measure_native_rw(std::uint64_t seed, double seconds, Tracer* t,
                         Outcome& out) {
    native::AfSharedMutex mtx(kNativeReaders, kNativeWriters);
    native::LockTelemetry telemetry;
    if (t != nullptr) {
        mtx.attach_telemetry(&telemetry);
    }
    auto rec = std::make_unique<Record>();
    write_record(*rec);
    const std::uint64_t initial_version = rec->w[0].load();
    const unsigned threads = worker_threads();
    std::vector<std::unique_ptr<NativeWorker>> ws;
    for (unsigned i = 0; i < threads; ++i) {
        ws.push_back(std::make_unique<NativeWorker>());
    }

    const LoopResult loop = run_closed_loop(
        threads, seconds,
        [&](unsigned i, const std::atomic<bool>& stop,
            std::atomic<std::uint64_t>& count, Calibration& cal) {
            NativeWorker& w = *ws[i];
            std::uint64_t rng = sim::stream_seed(seed, i);
            std::uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                rng = sim::splitmix64(rng);
                const bool write = (rng & 15) == 0;
                // Traced: every 8th passage times each facade call on its
                // own; every 1024th also becomes a span.
                const bool sampled = t != nullptr && (n & 7) == 0;
                const std::int64_t a = now_ns();
                if (write) {
                    mtx.lock();
                } else {
                    mtx.lock_shared();
                }
                const std::int64_t b = sampled ? now_ns() : 0;
                bool ok = true;
                if (write) {
                    write_record(*rec);
                    ++w.writes;
                } else {
                    ok = read_record(*rec);
                }
                const std::int64_t c = sampled ? now_ns() : 0;
                if (write) {
                    mtx.unlock();
                } else {
                    mtx.unlock_shared();
                }
                const std::int64_t d = now_ns();
                w.torn += ok ? 0 : 1;
                (write ? w.writer : w.reader)
                    .record(static_cast<std::uint64_t>(d - a));
                if (sampled) {
                    (write ? w.lock : w.lock_shared)
                        .record(static_cast<std::uint64_t>(b - a));
                    (write ? w.unlock : w.unlock_shared)
                        .record(static_cast<std::uint64_t>(d - c));
                    if ((n & 1023) == 0) {
                        const std::uint64_t p = record_span(
                            t, write ? "writer passage" : "reader passage",
                            a, d, 0, n, i);
                        record_span(t, write ? "lock" : "lock_shared", a, b,
                                    p, n, i);
                        record_span(t, "critical section", b, c, p, n, i);
                        record_span(t, write ? "unlock" : "unlock_shared", c,
                                    d, p, n, i);
                    }
                }
                count.store(++n, std::memory_order_relaxed);
                cal.tick(n);
            }
        });

    NativeWorker all;
    for (const auto& w : ws) {
        all.reader.merge(w->reader);
        all.writer.merge(w->writer);
        all.lock_shared.merge(w->lock_shared);
        all.unlock_shared.merge(w->unlock_shared);
        all.lock.merge(w->lock);
        all.unlock.merge(w->unlock);
        all.torn += w->torn;
        all.writes += w->writes;
    }
    out.attempt(loop.total);
    out.check(!loop.worker_threw, "native-rw: worker threw: " + loop.error);
    out.fail("native-rw: torn version+checksum reads", all.torn);
    out.check(read_record(*rec) &&
                  rec->w[0].load() == initial_version + all.writes,
              "native-rw: final record lost a write");

    if (t != nullptr) {
        emit_quantiles(out, "native.lock_shared", all.lock_shared, true);
        emit_quantiles(out, "native.unlock_shared", all.unlock_shared, true,
                       false);
        emit_quantiles(out, "native.lock", all.lock, true);
        emit_quantiles(out, "native.unlock", all.unlock, true, false);
        const native::TelemetrySnapshot snap = telemetry.aggregate();
        using C = native::TelemetryCounter;
        const auto cnt = [&](C c) {
            return static_cast<double>(snap.count(c));
        };
        out.layer("native.reader_contended_ratio",
                  ratio(cnt(C::kReaderContended), cnt(C::kReaderAcquire)),
                  "ratio");
        out.layer("native.writer_contended_ratio",
                  ratio(cnt(C::kWriterContended), cnt(C::kWriterAcquire)),
                  "ratio");
        out.layer("native.futex_waits_per_passage",
                  ratio(cnt(C::kFutexWait), static_cast<double>(loop.total)),
                  "count");
        out.layer("native.futex_wakes_per_passage",
                  ratio(cnt(C::kFutexWake), static_cast<double>(loop.total)),
                  "count");
        native_micro_layers(mtx.underlying().group_size(), kNativeWriters,
                            out);
        return loop.median_rate();
    }

    loop.emit(out);
    emit_quantiles(out, "reader", all.reader, false);
    emit_quantiles(out, "writer", all.writer, false);
    return loop.median_rate();
}

// ===========================================================================
// service-loopback
// ===========================================================================

constexpr std::uint32_t kServiceReaderPct = 90;

/// Four locks for nproc sessions, so sessions collide. Unhomed: under this
/// much collision the homed gate protocol can lose a wake-up and hang every
/// session (reproducible with dist::run_load on the same table), so the
/// benchmark measures the remote-polling variant.
dist::TableConfig service_table() {
    dist::TableConfig cfg;
    cfg.shards = 2;
    cfg.locks_per_shard = 2;
    cfg.sessions = worker_threads();
    cfg.homed = false;
    return cfg;
}

/// Daemon, attached client and client-side table; torn down in reverse.
struct Service {
    dist::LockServiceDaemon daemon;
    dist::DistClient client;
    std::unique_ptr<native::ParkingSpot[]> spots;
    std::unique_ptr<dist::NativeTable> table;

    explicit Service(const dist::TableConfig& cfg) : daemon(cfg) {
        daemon.start();
        client.connect("127.0.0.1", daemon.port());
        spots = std::make_unique<native::ParkingSpot[]>(cfg.sessions);
        table = std::make_unique<dist::NativeTable>(client.words(),
                                                    client.config(),
                                                    spots.get());
    }
    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;
    ~Service() {
        table.reset();
        client.close();
        daemon.stop();
    }
};

/// Daemon start, HELLO and table construction, then a warm-up of
/// `warm_ops` seeded ops from session 0.
double setup_service_ops(std::uint64_t seed, std::uint64_t warm_ops) {
    const std::int64_t t0 = now_ns();
    auto svc = std::make_unique<Service>(service_table());
    dist::NativeTable& table = *svc->table;
    const std::uint32_t locks = svc->client.config().num_locks();
    dist::NativeTable::Session session;
    session.id = 0;
    dist::OpStream stream(seed, 0);
    for (std::uint64_t i = 0; i < warm_ops; ++i) {
        const auto op = stream.next_op(locks, kServiceReaderPct);
        if (op.reader) {
            table.reader_acquire(session, op.lock_index);
            table.reader_release(session, op.lock_index);
        } else {
            table.writer_release(session, op.lock_index,
                                 table.writer_acquire(session, op.lock_index));
        }
    }
    const double s = seconds_since(t0);
    const std::uint64_t violations =
        table.witness_violations() + session.stats.violations;
    svc.reset();
    if (violations != 0) {
        throw std::runtime_error("service-loopback: violation during set-up");
    }
    return s;
}

double setup_service(std::uint64_t seed) {
    return setup_service_ops(seed, kSetupServiceOps);
}

struct SessionWorker {
    dist::NativeTable::Session session;
    Histogram reader, writer;
    Histogram reader_acquire, writer_acquire, release;  // Traced.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_net = 0;
    std::uint64_t write_net = 0;
};

double measure_service(std::uint64_t seed, double seconds, Tracer* t,
                       Outcome& out) {
    const dist::TableConfig cfg = service_table();
    std::vector<double> connects;
    if (t != nullptr) {
        for (int i = 0; i < 5; ++i) {
            connects.push_back(setup_service_ops(seed, 0) * 1e3);
        }
        out.layer("dist.connect_ms", median(connects), "ms");
    }
    Service svc(cfg);
    dist::NativeTable& table = *svc.table;
    const std::uint32_t locks = cfg.num_locks();
    std::vector<std::unique_ptr<SessionWorker>> ws;
    for (std::uint32_t i = 0; i < cfg.sessions; ++i) {
        ws.push_back(std::make_unique<SessionWorker>());
        ws.back()->session.id = i;
    }

    const LoopResult loop = run_closed_loop(
        cfg.sessions, seconds,
        [&](unsigned i, const std::atomic<bool>& stop,
            std::atomic<std::uint64_t>& count, Calibration& cal) {
            SessionWorker& w = *ws[i];
            dist::OpStream stream(seed, i);
            std::uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const auto op = stream.next_op(locks, kServiceReaderPct);
                const bool sampled = t != nullptr && (n & 7) == 0;
                const std::uint64_t net0 = w.session.stats.network_rmrs;
                const std::int64_t a = now_ns();
                std::uint64_t ticket = 0;
                if (op.reader) {
                    table.reader_acquire(w.session, op.lock_index);
                } else {
                    ticket = table.writer_acquire(w.session, op.lock_index);
                }
                const std::int64_t b = sampled ? now_ns() : 0;
                if (op.reader) {
                    table.reader_release(w.session, op.lock_index);
                } else {
                    table.writer_release(w.session, op.lock_index, ticket);
                }
                const std::int64_t c = now_ns();
                const std::uint64_t net = w.session.stats.network_rmrs - net0;
                if (op.reader) {
                    ++w.reads;
                    w.read_net += net;
                    w.reader.record(static_cast<std::uint64_t>(c - a));
                } else {
                    ++w.writes;
                    w.write_net += net;
                    w.writer.record(static_cast<std::uint64_t>(c - a));
                }
                if (sampled) {
                    (op.reader ? w.reader_acquire : w.writer_acquire)
                        .record(static_cast<std::uint64_t>(b - a));
                    w.release.record(static_cast<std::uint64_t>(c - b));
                    if ((n & 1023) == 0) {
                        const std::uint64_t p = record_span(
                            t, op.reader ? "read op" : "write op", a, c, 0, n,
                            i);
                        record_span(t,
                                    op.reader ? "NativeTable::reader_acquire"
                                              : "NativeTable::writer_acquire",
                                    a, b, p, n, i);
                        record_span(t,
                                    op.reader ? "NativeTable::reader_release"
                                              : "NativeTable::writer_release",
                                    b, c, p, n, i);
                    }
                }
                count.store(++n, std::memory_order_relaxed);
                cal.tick(n);
            }
        });

    SessionWorker all;
    std::uint64_t session_violations = 0;
    for (const auto& w : ws) {
        all.reader.merge(w->reader);
        all.writer.merge(w->writer);
        all.reader_acquire.merge(w->reader_acquire);
        all.writer_acquire.merge(w->writer_acquire);
        all.release.merge(w->release);
        all.reads += w->reads;
        all.writes += w->writes;
        all.read_net += w->read_net;
        all.write_net += w->write_net;
        session_violations += w->session.stats.violations;
    }
    out.attempt(loop.total);
    out.check(!loop.worker_threw,
              "service-loopback: worker threw: " + loop.error);
    out.fail("service-loopback: witness violations",
             table.witness_violations() + session_violations);
    // The daemon reads the same words over its own mapping: its view must
    // match what the client did, and a quiesced table holds nothing.
    const dist::CtrlReply st = svc.client.stats();
    out.check(st.ok == 1, "service-loopback: STATS round trip failed");
    out.check(st.tickets_issued == all.writes,
              "service-loopback: daemon tickets != client writes");
    out.check(st.readers_active == 0,
              "service-loopback: readers still active after quiesce");
    out.check(st.witness_nonzero == 0,
              "service-loopback: locks still writer-held after quiesce");

    if (t != nullptr) {
        emit_quantiles(out, "dist.reader_acquire", all.reader_acquire, true);
        emit_quantiles(out, "dist.writer_acquire", all.writer_acquire, true);
        emit_quantiles(out, "dist.release", all.release, true, false);
        out.layer("dist.network_rmrs_per_read",
                  ratio(static_cast<double>(all.read_net),
                        static_cast<double>(all.reads)),
                  "RMRs");
        out.layer("dist.network_rmrs_per_write",
                  ratio(static_cast<double>(all.write_net),
                        static_cast<double>(all.writes)),
                  "RMRs");
        return loop.median_rate();
    }

    loop.emit(out);
    emit_quantiles(out, "reader", all.reader, false);
    emit_quantiles(out, "writer", all.writer, false);
    out.e2e("network_rmrs_per_op",
            ratio(static_cast<double>(all.read_net + all.write_net),
                  static_cast<double>(all.reads + all.writes)),
            "RMRs");
    return loop.median_rate();
}

}  // namespace

void set_contended(bool on) { g_contended = on; }

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"sim-sweep", setup_sim_sweep, measure_sim_sweep},
        {"sim-explore", setup_sim_explore, measure_sim_explore},
        {"native-rw", setup_native_rw, measure_native_rw},
        {"service-loopback", setup_service, measure_service},
    };
    return all;
}

const Workload* find_workload(std::string_view name) {
    for (const auto& w : workloads()) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

}  // namespace perfbench
