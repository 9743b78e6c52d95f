// Unit tests of the benchmark's helpers: the sub-bucketed histogram, the
// component ledger and replay, and failure counting. Run by ctest in the
// benchmark's build directory, or directly; exit status 0 iff all pass.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/experiment.hpp"
#include "histogram.hpp"
#include "ledger.hpp"
#include "report.hpp"
#include "sim/por.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            ++g_failures;                                               \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                              \
        }                                                               \
    } while (0)

void histogram_quantiles_within_one_sub_bucket() {
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 7;
    for (int i = 0; i < 100'000; ++i) {
        x = rwr::sim::splitmix64(x);
        // Spread over ~6 decades: small exact values up to tens of ms.
        const int octave = static_cast<int>(x % 25);
        samples.push_back((x >> 8) % (std::uint64_t{1} << octave) +
                          static_cast<std::uint64_t>(octave));
    }
    Histogram h;
    for (const auto s : samples) {
        h.record(s);
    }
    CHECK(h.count() == samples.size());
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const auto rank = static_cast<std::size_t>(
            std::max(1.0, std::ceil(q * static_cast<double>(samples.size()))));
        const std::uint64_t exact = samples[rank - 1];
        const double est = h.quantile(q);
        const std::uint32_t b = Histogram::index_of(exact);
        const auto width = static_cast<double>(Histogram::width_of(b));
        CHECK(std::abs(est - static_cast<double>(exact)) <= width);
        // One sub-bucket is at most 1/16 of the value above the exact range.
        CHECK(width <= std::max(1.0, static_cast<double>(exact) / 16.0));
    }
    // Buckets tile the value range with no gap or overlap.
    for (std::uint32_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        CHECK(Histogram::lower_of(i) + Histogram::width_of(i) ==
              Histogram::lower_of(i + 1));
        CHECK(Histogram::index_of(Histogram::lower_of(i)) == i);
    }
    CHECK(Histogram().quantile(0.5) == 0.0);
}

void classify_follows_af_names() {
    CHECK(classify("af.C0.leaf1") == Component::Counter);
    CHECK(classify("af.W3.node0") == Component::Counter);
    CHECK(classify("af.WL.n2.flag0") == Component::Wl);
    CHECK(classify("af.WSIG1") == Component::Wsig);
    CHECK(classify("af.WSEQ") == Component::Wsig);
    CHECK(classify("af.RSIG") == Component::Rsig);
    CHECK(classify("af.RGATE3") == Component::Rsig);
    CHECK(classify("dist/seg0/w1") == Component::Other);
    CHECK(classify("mx.n0.flag0") == Component::Other);
}

void ledger_reconciles_with_memory(rwr::harness::LockKind kind,
                                   rwr::Protocol proto) {
    rwr::harness::ExperimentConfig cfg;
    cfg.lock = kind;
    cfg.protocol = proto;
    cfg.n = 8;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 3;
    cfg.seed = 11;
    rwr::sim::Scenario sc = rwr::harness::scenario_factory(cfg)();
    const VarImage image = snapshot_vars(sc.sys->memory());
    ComponentLedger ledger(sc.sys->memory());
    OpRecorder recorder(1u << 20);
    sc.sys->add_observer(&ledger);
    sc.sys->add_observer(&recorder);
    rwr::sim::RandomScheduler sched(cfg.seed);
    const auto rr = rwr::sim::run(*sc.sys, sched, 10'000'000);
    CHECK(rr.all_finished);
    const rwr::Memory& mem = sc.sys->memory();
    CHECK(mem.total_rmrs() > 0);
    CHECK(ledger.total_rmrs() == mem.total_rmrs());
    CHECK(ledger.rmr_steps() == mem.total_rmrs());
    CHECK(ledger.rmrs(0, Component::Other) + ledger.rmrs(1, Component::Other) ==
          0);
    CHECK(ledger.rmrs(0, Component::Counter) > 0);
    CHECK(ledger.rmrs(1, Component::Wsig) > 0);
    CHECK(ledger.rmrs(1, Component::Wl) > 0);
    // The untraced runner, same config: the same RMRs, charged once.
    const auto res = rwr::harness::run_experiment(cfg);
    std::uint64_t runner_total = 0;
    for (const auto r : res.proc_rmrs) {
        runner_total += r;
    }
    CHECK(runner_total == ledger.total_rmrs());
    // Replaying the recorded stream through a fresh Memory reproduces it.
    const ReplayResult rp = replay(image, recorder.ops());
    CHECK(rp.ops == ledger.mem_ops());
    CHECK(rp.rmrs == mem.total_rmrs());
}

void failures_set_the_exit_code() {
    Outcome ok;
    ok.attempt(10);
    ok.check(true, "fine");
    ok.fail("zero failures", 0);
    CHECK(ok.exit_code() == 0);
    CHECK(ok.correct());
    CHECK(ok.failed_ratio() == 0.0);

    Outcome bad;
    bad.attempt(10);
    bad.check(false, "one check", 2);
    CHECK(bad.exit_code() != 0);
    CHECK(bad.failed() == 2);
    CHECK(bad.failed_ratio() == 0.2);
    CHECK(bad.failures().size() == 1);

    Outcome nothing;
    CHECK(nothing.exit_code() != 0);  // Nothing attempted is not a pass.
}

}  // namespace

int main() {
    histogram_quantiles_within_one_sub_bucket();
    classify_follows_af_names();
    ledger_reconciles_with_memory(rwr::harness::LockKind::Af,
                                  rwr::Protocol::WriteBack);
    ledger_reconciles_with_memory(rwr::harness::LockKind::AfDsm,
                                  rwr::Protocol::Dsm);
    failures_set_the_exit_code();
    if (g_failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
