// Correctness tests for the A_f reader-writer lock family (Algorithm 1):
// Mutual Exclusion (random sweeps + exhaustive small-schedule search),
// Deadlock Freedom, Bounded Exit, Concurrent Entering, reader starvation
// freedom, writer starvation demonstration, and RMR sanity.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/af_lock_sim.hpp"
#include "harness/experiment.hpp"
#include "harness/locks.hpp"
#include "sim/explorer.hpp"
#include "step_digest.hpp"

namespace rwr::core {
namespace {

using harness::ExperimentConfig;
using harness::LockKind;
using harness::run_experiment;
using harness::SchedKind;
using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;
using testkit::digest_run;
using testkit::DigestRun;

TEST(AfLock, ParamsValidation) {
    System sys(Protocol::WriteBack);
    AfParams bad;
    bad.n = 4;
    bad.m = 1;
    bad.f = 5;  // f > n.
    EXPECT_THROW(AfSimLock(sys.memory(), bad), std::invalid_argument);
    bad.f = 0;  // Rejected before K = ceil(n/f) divides by it.
    EXPECT_THROW(AfSimLock(sys.memory(), bad), std::invalid_argument);
}

TEST(AfParams, GeometryAtTheTopOfTheRange) {
    // K = ceil(n/f) and the group count, computed without n + f - 1 (which
    // wrapped K to 0 at f = 2 and, through K, the group count too).
    constexpr std::uint32_t n = 0xFFFFFFFFu;
    struct Case {
        std::uint32_t f, k, groups;
    };
    for (const Case c : {Case{1, n, 1}, Case{2, 0x80000000u, 2},
                         Case{3, n / 3, 3}, Case{n, 1, n}}) {
        const AfParams params{.n = n, .m = 1, .f = c.f};
        EXPECT_EQ(params.group_size(), c.k) << "f=" << c.f;
        EXPECT_EQ(params.num_groups(), c.groups) << "f=" << c.f;
    }
}

TEST(AfParams, SqrtChoiceAtTheTopOfTheRange) {
    EXPECT_EQ(f_of(FChoice::Sqrt, 64), 8u);
    EXPECT_EQ(f_of(FChoice::Sqrt, 65535u * 65535u), 65535u);
    EXPECT_EQ(f_of(FChoice::Sqrt, 65535u * 65535u + 1), 65536u);
    EXPECT_EQ(f_of(FChoice::Sqrt, 0xFFFFFFFFu), 65536u);
}

TEST(AfLock, GroupAssignment) {
    // n=10, f=3 -> K=ceil(10/3)=4; groups: {0..3}, {4..7}, {8..9}.
    System sys(Protocol::WriteBack);
    AfParams params{.n = 10, .m = 1, .f = 3};
    AfSimLock lock(sys.memory(), params);
    EXPECT_EQ(params.group_size(), 4u);
    EXPECT_EQ(lock.group_of(0), 0u);
    EXPECT_EQ(lock.group_of(3), 0u);
    EXPECT_EQ(lock.group_of(4), 1u);
    EXPECT_EQ(lock.group_of(9), 2u);
    EXPECT_EQ(lock.slot_of(9), 1u);
}

TEST(AfLock, SoloReaderPassage) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 1;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 3;
    cfg.sched = SchedKind::RoundRobin;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, 3u);
}

TEST(AfLock, SoloWriterPassage) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 1;
    cfg.sched = SchedKind::RoundRobin;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.writers.num_passages, 1u);
    EXPECT_EQ(res.me_violations, 0u);
}

using AfSweepPoint = std::tuple<Protocol, std::uint32_t /*n*/,
                                std::uint32_t /*m*/, std::uint32_t /*f*/,
                                std::uint64_t /*seed*/>;

class AfSweep : public ::testing::TestWithParam<AfSweepPoint> {};

/// Every valid (f <= n) point of the sweep.
std::vector<AfSweepPoint> af_sweep_grid() {
    std::vector<AfSweepPoint> grid;
    for (const Protocol proto : {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {1u, 2u, 5u, 8u}) {
            for (const std::uint32_t m : {1u, 2u, 3u}) {
                for (const std::uint32_t f : {1u, 2u, 4u, 8u}) {
                    if (f > n) {
                        continue;
                    }
                    for (std::uint64_t seed = 0; seed < 4; ++seed) {
                        grid.emplace_back(proto, n, m, f, seed);
                    }
                }
            }
        }
    }
    return grid;
}

TEST_P(AfSweep, MutualExclusionAndProgress) {
    const auto [proto, n, m, f, seed] = GetParam();
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.m = m;
    cfg.f = f;
    cfg.passages = 4;
    cfg.cs_steps = 2;
    cfg.seed = seed;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished) << "deadlock/livelock suspected";
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, static_cast<std::uint64_t>(n) * 4);
    EXPECT_EQ(res.writers.num_passages, static_cast<std::uint64_t>(m) * 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AfSweep, ::testing::ValuesIn(af_sweep_grid()));

TEST(AfLock, ExhaustiveSmallSchedules_N2M1F1) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteThrough;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 1;
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
    EXPECT_GT(res.schedules_explored, 500u);
}

TEST(AfLock, ExhaustiveSmallSchedules_N2M1F2) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 2;
    cfg.m = 1;
    cfg.f = 2;  // Two singleton groups.
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, ExhaustiveSmallSchedules_N1M2) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteThrough;
    cfg.n = 1;
    cfg.m = 2;
    cfg.f = 1;
    cfg.passages = 1;
    const auto res =
        sim::explore_dfs(harness::scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, RandomizedDeepSchedules) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 3;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 3;
    const auto res = sim::explore_random(harness::scenario_factory(cfg),
                                         300, /*seed=*/42, 2'000'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
    EXPECT_EQ(res.truncated_runs, 0u);
}

TEST(AfLock, ReadersShareTheCriticalSection) {
    // The whole point of an RW lock: with a long CS and many readers, the
    // checker must observe genuine reader concurrency.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 6;
    cfg.m = 1;
    cfg.f = 2;
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(AfLock, ConcurrentEnteringStepsBounded) {
    // Paper Section 2.1: with all writers in the remainder section, a
    // reader's entry completes within b of its own steps. A_f's entry is
    // wait-free when no writer signals WAIT: counter add (<= 2 refreshes
    // per level) + one RSIG read. We verify the max entry steps over a
    // heavily contended reader-only run is within the deterministic bound.
    for (const std::uint32_t n : {4u, 16u, 64u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::Af;
        cfg.n = n;
        cfg.m = 1;  // Writer present but performs 0 passages... we model
                    // this by making everyone run, then only checking
                    // readers in a separate writer-free config below.
        cfg.f = 1;
        cfg.passages = 3;
        cfg.seed = 17;
        // Writer-free variant: m must be >= 1 for the lock, so give the
        // writer zero work by setting passages per-process uniformly and
        // running a custom scenario instead.
        sim::System sys(Protocol::WriteBack);
        AfParams params{.n = n, .m = 1, .f = 1};
        AfSimLock lock(sys.memory(), params);
        auto records =
            std::make_unique<std::vector<std::vector<sim::PassageRecord>>>(n);
        for (std::uint32_t r = 0; r < n; ++r) {
            sim::Process& p = sys.add_process(Role::Reader);
            sim::DriveConfig dc;
            dc.passages = 3;
            dc.records = &(*records)[r];
            p.set_task(sim::drive(lock, p, dc));
        }
        sim::RandomScheduler sched(5);
        ASSERT_TRUE(sim::run(sys, sched, 50'000'000).all_finished);

        const std::uint32_t K = params.group_size();
        const auto levels = static_cast<std::uint64_t>(std::bit_width(
                                std::bit_ceil(K)) - 1);
        // add: 2 leaf steps + 2 refreshes x 4 steps per level; +1 RSIG read.
        const std::uint64_t bound = 2 + 2 * 4 * levels + 1;
        for (const auto& recs : *records) {
            for (const auto& rec : recs) {
                EXPECT_LE(rec.delta.steps_in(Section::Entry), bound);
            }
        }
    }
}

TEST(AfLock, BoundedExit) {
    // Bounded Exit: reader and writer exits complete within a deterministic
    // number of own steps regardless of scheduling (no waiting in exit).
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 8;
    cfg.m = 2;
    cfg.f = 2;
    cfg.passages = 4;
    cfg.seed = 11;
    const auto res = run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    const std::uint32_t K = (8 + 1) / 2;  // ceil(8/2)=4.
    const auto levels =
        static_cast<std::uint64_t>(std::bit_width(std::bit_ceil(K)) - 1);
    // Reader exit: C.add (2 + 8*levels) + RSIG read + worst helper
    // (2 counter reads + CAS) or PREENTRY path (read + CAS).
    const std::uint64_t reader_bound = (2 + 8 * levels) + 1 + 3;
    EXPECT_LE(res.readers.max_steps[static_cast<int>(Section::Exit)],
              reader_bound);
    // Writer exit: read WSEQ + write WSEQ + write RSIG + WL exit (1/level).
    const std::uint64_t writer_bound = 3 + 8;
    EXPECT_LE(res.writers.max_steps[static_cast<int>(Section::Exit)],
              writer_bound);
}

TEST(AfLock, NoReaderStarvationUnderFairSchedules) {
    // Lemma 16: readers never starve. Under fair random scheduling with
    // writers continuously cycling, every reader finishes its passages.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Af;
    cfg.n = 6;
    cfg.m = 3;
    cfg.f = 3;
    cfg.passages = 8;
    cfg.seed = 23;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.readers.num_passages, 48u);
}

SimTask<void> overlapping_reader(sim::SimRWLock& lock, Process& p,
                                 std::uint64_t passages) {
    for (std::uint64_t k = 0; k < passages; ++k) {
        p.set_section(Section::Entry);
        co_await lock.reader_entry(p);
        p.set_section(Section::Critical);
        co_await p.local_step();
        p.set_section(Section::Exit);
        co_await lock.reader_exit(p);
        p.set_section(Section::Remainder);
        p.note_passage_complete();
        // Observable remainder pause, so the test's scheduler can detect
        // the section boundary before the next passage begins.
        co_await p.local_step();
    }
}

TEST(AfLock, WriterCanStarveUnderReaderFlood) {
    // Paper Section 6: "Writers, however, may starve if there are always
    // readers performing passages." We build the adversarial alternation:
    // two readers in one group overlap so C[0] never reaches 0 while the
    // writer sits in its PREENTRY loop.
    sim::System sys(Protocol::WriteBack);
    AfParams params{.n = 2, .m = 1, .f = 1};
    AfSimLock lock(sys.memory(), params);
    Process& r0 = sys.add_process(Role::Reader);
    Process& r1 = sys.add_process(Role::Reader);
    Process& w = sys.add_process(Role::Writer);
    r0.set_task(overlapping_reader(lock, r0, 1'000'000));
    r1.set_task(overlapping_reader(lock, r1, 1'000'000));
    sim::DriveConfig dc;
    dc.passages = 1;
    w.set_task(sim::drive(lock, w, dc));
    sys.start_all();

    // Alternate readers so that at every instant at least one of them is
    // inside a passage (C[0] > 0); give the writer a step regularly.
    auto run_reader_until_cs = [&](Process& r) {
        int guard = 0;
        while (!r.in_cs() && guard++ < 10'000) {
            sys.step(r.id());
        }
        ASSERT_TRUE(r.in_cs());
    };
    auto run_reader_until_remainder = [&](Process& r) {
        int guard = 0;
        while (r.section() != Section::Remainder && guard++ < 10'000) {
            sys.step(r.id());
        }
        ASSERT_EQ(r.section(), Section::Remainder);
    };
    run_reader_until_cs(r0);
    for (int round = 0; round < 200; ++round) {
        run_reader_until_cs(r1);   // Overlap established...
        run_reader_until_remainder(r0);  // ...now r0 may leave.
        for (int i = 0; i < 5; ++i) {
            sys.step(w.id());  // Writer spins in its entry section.
        }
        run_reader_until_cs(r0);
        run_reader_until_remainder(r1);
        for (int i = 0; i < 5; ++i) {
            sys.step(w.id());
        }
    }
    EXPECT_EQ(w.completed_passages(), 0u);
    EXPECT_EQ(w.section(), Section::Entry) << "writer should still be stuck";
    EXPECT_GE(r0.completed_passages() + r1.completed_passages(), 100u);
}

TEST(AfLock, WriterRmrGrowsWithF_ReaderRmrShrinksWithF) {
    // Directional sanity for Theorem 18 (full curves in bench_tradeoff):
    // with n fixed, raising f must raise writer passage RMRs and lower
    // reader passage RMRs.
    constexpr std::uint32_t n = 64;
    double writer_low_f = 0, writer_high_f = 0;
    double reader_low_f = 0, reader_high_f = 0;
    for (const std::uint32_t f : {1u, 64u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::Af;
        cfg.n = n;
        cfg.m = 1;
        cfg.f = f;
        cfg.passages = 2;
        cfg.sched = SchedKind::RoundRobin;
        const auto res = run_experiment(cfg);
        ASSERT_TRUE(res.finished);
        if (f == 1) {
            writer_low_f = res.writers.mean_passage_rmrs;
            reader_low_f = res.readers.mean_passage_rmrs;
        } else {
            writer_high_f = res.writers.mean_passage_rmrs;
            reader_high_f = res.readers.mean_passage_rmrs;
        }
    }
    EXPECT_GT(writer_high_f, 4.0 * writer_low_f);
    EXPECT_GT(reader_low_f, 1.5 * reader_high_f);
}

// ---- Every simulated step, pinned -------------------------------------------
//
// A refactor of AfSimLock must issue the same steps (tests/step_digest.hpp);
// perfbench's ComponentLedger classifies RMRs by the variables' "af."
// names, so the digest also covers them.

struct DigestCase {
    Protocol proto;
    std::uint32_t n, m, f;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t steps;
};

TEST(AfStepDigest, EverySimulatedStepIsPinned) {
    // The steps of the hand-written sections that core/af_protocol.inc
    // replaced: a change to any row is a change to a simulated step. The
    // WriteThrough and WriteBack rows take the same schedules, so only
    // their RMR flags differ; the Dsm rows run LockKind::AfDsm.
    const DigestCase cases[] = {
        {Protocol::WriteThrough, 1, 1, 1, 0, 0x8d3a673af59e7a28ull, 96},
        {Protocol::WriteThrough, 1, 1, 1, 1, 0xb2b4407389143119ull, 89},
        {Protocol::WriteThrough, 1, 1, 1, 2, 0xd8861c00309dcb6full, 101},
        {Protocol::WriteThrough, 1, 1, 1, 3, 0x20a4ad7034f2d54aull, 85},
        {Protocol::WriteThrough, 3, 1, 1, 0, 0xc4177d457d3eae2eull, 542},
        {Protocol::WriteThrough, 3, 1, 1, 1, 0x7c8ea64d90ecb284ull, 428},
        {Protocol::WriteThrough, 3, 1, 1, 2, 0x5a0bb565a95521d8ull, 489},
        {Protocol::WriteThrough, 3, 1, 1, 3, 0xc6280b067d170f3full, 508},
        {Protocol::WriteThrough, 4, 2, 2, 0, 0x9c536256cd53df72ull, 627},
        {Protocol::WriteThrough, 4, 2, 2, 1, 0x254834f224d8acddull, 669},
        {Protocol::WriteThrough, 4, 2, 2, 2, 0x020e29ade0ac151eull, 647},
        {Protocol::WriteThrough, 4, 2, 2, 3, 0xe2a572a81394df99ull, 551},
        {Protocol::WriteThrough, 5, 3, 5, 0, 0xd9de0d92d436ec89ull, 913},
        {Protocol::WriteThrough, 5, 3, 5, 1, 0x44f73fff4782d624ull, 895},
        {Protocol::WriteThrough, 5, 3, 5, 2, 0xf8744a77fb3e888full, 859},
        {Protocol::WriteThrough, 5, 3, 5, 3, 0x0bcde92bdd06454full, 863},
        {Protocol::WriteBack, 1, 1, 1, 0, 0x13e140904fa1f138ull, 96},
        {Protocol::WriteBack, 1, 1, 1, 1, 0xd7d877389d3a3400ull, 89},
        {Protocol::WriteBack, 1, 1, 1, 2, 0x5bbe8c8d45d48e0aull, 101},
        {Protocol::WriteBack, 1, 1, 1, 3, 0x7588734d4a5b7d5full, 85},
        {Protocol::WriteBack, 3, 1, 1, 0, 0x831abda3a4369142ull, 542},
        {Protocol::WriteBack, 3, 1, 1, 1, 0x880f4330a354caa8ull, 428},
        {Protocol::WriteBack, 3, 1, 1, 2, 0x74ad1af547e5dce0ull, 489},
        {Protocol::WriteBack, 3, 1, 1, 3, 0xebd231f25b1737cfull, 508},
        {Protocol::WriteBack, 4, 2, 2, 0, 0x227db77a07d67b0full, 627},
        {Protocol::WriteBack, 4, 2, 2, 1, 0xfaa61d37d6f29be1ull, 669},
        {Protocol::WriteBack, 4, 2, 2, 2, 0x5dd0c25e77d3becaull, 647},
        {Protocol::WriteBack, 4, 2, 2, 3, 0x7b8a65013911aba9ull, 551},
        {Protocol::WriteBack, 5, 3, 5, 0, 0xd401c3e97a1f352dull, 913},
        {Protocol::WriteBack, 5, 3, 5, 1, 0x79c43195ac20976dull, 895},
        {Protocol::WriteBack, 5, 3, 5, 2, 0xa5872fd7adab3d4eull, 859},
        {Protocol::WriteBack, 5, 3, 5, 3, 0xd478f5f56de99d26ull, 863},
        {Protocol::Dsm, 1, 1, 1, 0, 0xbdf8935b0627faa7ull, 98},
        {Protocol::Dsm, 1, 1, 1, 1, 0xc99cdd70c1f2208full, 110},
        {Protocol::Dsm, 1, 1, 1, 2, 0x0042deac18f4e135ull, 104},
        {Protocol::Dsm, 1, 1, 1, 3, 0xe797643e14971a8eull, 87},
        {Protocol::Dsm, 3, 1, 1, 0, 0xec4f7f9ec2e8efc5ull, 584},
        {Protocol::Dsm, 3, 1, 1, 1, 0x8939ea8d78681004ull, 434},
        {Protocol::Dsm, 3, 1, 1, 2, 0x68a4b9dd2cb60bbaull, 494},
        {Protocol::Dsm, 3, 1, 1, 3, 0x4ad72755fb26d735ull, 534},
        {Protocol::Dsm, 4, 2, 2, 0, 0xf859d5604b64d836ull, 721},
        {Protocol::Dsm, 4, 2, 2, 1, 0x7fa54cb0738dfa30ull, 770},
        {Protocol::Dsm, 4, 2, 2, 2, 0xcecd8d08d19b4889ull, 715},
        {Protocol::Dsm, 4, 2, 2, 3, 0x36cbe3ae3db1a1e4ull, 636},
        {Protocol::Dsm, 5, 3, 5, 0, 0x905108f5caf8211bull, 1146},
        {Protocol::Dsm, 5, 3, 5, 1, 0x63f232c2e2c5d8bfull, 1052},
        {Protocol::Dsm, 5, 3, 5, 2, 0x4c62472ba67599afull, 1021},
        {Protocol::Dsm, 5, 3, 5, 3, 0x88937c8196398c16ull, 1035},
    };
    for (const DigestCase& c : cases) {
        const auto kind =
            c.proto == Protocol::Dsm ? LockKind::AfDsm : LockKind::Af;
        const DigestRun r = digest_run(
            c.proto,
            [&](Memory& mem) {
                return harness::make_sim_lock(kind, mem, c.n, c.m, c.f);
            },
            c.n, c.m, c.seed, /*hash_names=*/true, 2'000'000);
        const std::string label = to_string(c.proto) + " n=" +
                                  std::to_string(c.n) + " m=" +
                                  std::to_string(c.m) + " f=" +
                                  std::to_string(c.f) + " seed " +
                                  std::to_string(c.seed);
        EXPECT_TRUE(r.finished) << label;
        EXPECT_EQ(r.steps, c.steps) << label;
        EXPECT_EQ(r.digest, c.digest) << label;
    }
}

TEST(AfStepDigest, AblationsArePinned) {
    // (3, 1, 1) under WriteBack, hashing VarIds but not names (the
    // ablated copy that af_protocol.inc replaced named its variables
    // "abf."). Without exit helping every seed strands the writer, so
    // those rows stop at the step budget.
    struct AblationCase {
        AfAblation ablation;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t steps;
    };
    const AblationCase cases[] = {
        {AfAblation::NoPreentry, 0, 0x542d15219213c939ull, 543},
        {AfAblation::NoPreentry, 1, 0x38af260a6515f464ull, 675},
        {AfAblation::NoPreentry, 2, 0xb67dd3e214801232ull, 513},
        {AfAblation::NoPreentry, 3, 0x6ebb8644e611b7b3ull, 550},
        {AfAblation::NoExitHelp, 0, 0x26d5adae732f146eull, 20'000},
        {AfAblation::NoExitHelp, 1, 0x1f2b9e2ad1459a1aull, 20'000},
        {AfAblation::NoExitHelp, 2, 0x652c10d713d7a963ull, 20'000},
        {AfAblation::NoExitHelp, 3, 0x72183115a0bb5a94ull, 20'000},
    };
    for (const AblationCase& c : cases) {
        const DigestRun r = digest_run(
            Protocol::WriteBack,
            [&](Memory& mem) {
                return std::make_unique<AfSimLock>(
                    mem, AfParams{.n = 3, .m = 1, .f = 1}, c.ablation);
            },
            3, 1, c.seed, /*hash_names=*/false, 20'000);
        EXPECT_EQ(r.finished, c.ablation == AfAblation::NoPreentry)
            << "seed " << c.seed;
        EXPECT_EQ(r.steps, c.steps) << "seed " << c.seed;
        EXPECT_EQ(r.digest, c.digest) << "seed " << c.seed;
    }
}

}  // namespace
}  // namespace rwr::core
