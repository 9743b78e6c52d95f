// Correctness tests for the baseline reader-writer locks, plus the
// behavioural contrasts the paper draws: the FAA lock's O(1) reader exit
// (outside the read/write/CAS tradeoff), the reader-preference lock's
// Θ(log n) reader sections, and the big-mutex baseline's failure of
// Concurrent Entering (readers never share the CS). The FAA and phase-fair
// texts' typed suites run their cases on both executors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/sim_baselines.hpp"
#include "harness/experiment.hpp"
#include "native/baselines.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "step_digest.hpp"

namespace rwr::baselines {
namespace {

using harness::ExperimentConfig;
using harness::LockKind;
using harness::run_experiment;
using harness::scenario_factory;
using harness::SchedKind;

class BaselineSweep
    : public ::testing::TestWithParam<
          std::tuple<LockKind, Protocol, std::uint32_t /*n*/,
                     std::uint32_t /*m*/, std::uint64_t /*seed*/>> {};

TEST_P(BaselineSweep, MutualExclusionAndProgress) {
    const auto [kind, proto, n, m, seed] = GetParam();
    ExperimentConfig cfg;
    cfg.lock = kind;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.m = m;
    cfg.passages = 4;
    cfg.cs_steps = 2;
    cfg.seed = seed;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished) << "deadlock/livelock suspected for "
                              << harness::to_string(kind);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, static_cast<std::uint64_t>(n) * 4);
    EXPECT_EQ(res.writers.num_passages, static_cast<std::uint64_t>(m) * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSweep,
    ::testing::Combine(::testing::Values(LockKind::Centralized, LockKind::Faa,
                                         LockKind::PhaseFair,
                                         LockKind::ReaderPref,
                                         LockKind::BigMutex),
                       ::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Values(1u, 2u, 6u),
                       ::testing::Values(1u, 3u),
                       ::testing::Range<std::uint64_t>(0, 5)));

class BaselineExhaustive : public ::testing::TestWithParam<LockKind> {};

TEST_P(BaselineExhaustive, SmallSchedules) {
    ExperimentConfig cfg;
    cfg.lock = GetParam();
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 2;
    cfg.m = 1;
    cfg.passages = 1;
    const auto res = sim::explore_dfs(scenario_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineExhaustive,
                         ::testing::Values(LockKind::Centralized,
                                           LockKind::Faa,
                                           LockKind::PhaseFair,
                                           LockKind::ReaderPref,
                                           LockKind::BigMutex));

TEST(FaaLock, ReaderExitIsConstantRmr) {
    // The FAA evasion: even under heavy contention, a reader's exit is at
    // most a couple of steps (one FAA, possibly one gate write).
    for (const std::uint32_t n : {4u, 16u, 64u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::Faa;
        cfg.n = n;
        cfg.m = 2;
        cfg.passages = 4;
        cfg.seed = 9;
        const auto res = run_experiment(cfg);
        ASSERT_TRUE(res.finished);
        EXPECT_LE(res.readers.max_steps[static_cast<int>(Section::Exit)], 2u)
            << "n=" << n;
    }
}

TEST(FaaLock, WriterDoesNotTrustAStaleDrainGate) {
    // Reader 0 backs out under the writer's first passage and sets wgate_
    // after the second passage has reset it, while reader 1, which entered
    // between the two passages, is still in the CS. A writer that leaves
    // its drain wait on wgate_ == 1 alone enters beside reader 1.
    ExperimentConfig cfg;
    cfg.lock = LockKind::Faa;
    cfg.protocol = Protocol::WriteBack;
    cfg.n = 2;
    cfg.m = 1;
    cfg.passages = 2;
    cfg.replay = {2, 2, 2, 0, 0, 2, 2, 2, 1, 2, 2, 2, 0, 2, 1};
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
}

TEST(ReaderPrefLock, ReadersShareCs) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::ReaderPref;
    cfg.n = 6;
    cfg.m = 1;
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(CentralizedLock, ReadersShareCs) {
    ExperimentConfig cfg;
    cfg.lock = LockKind::Centralized;
    cfg.n = 6;
    cfg.m = 1;
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(BigMutexLock, ReadersNeverShareCs) {
    // The degenerate baseline violates Concurrent Entering: the CS is
    // exclusive even among readers.
    ExperimentConfig cfg;
    cfg.lock = LockKind::BigMutex;
    cfg.n = 6;
    cfg.m = 1;
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_EQ(res.max_concurrent_readers, 1u);
}

TEST(PhaseFairLock, WritersProgressUnderContention) {
    // The fairness property the paper's family lacks: under sustained
    // reader traffic with fair scheduling, writers keep completing.
    ExperimentConfig cfg;
    cfg.lock = LockKind::PhaseFair;
    cfg.n = 8;
    cfg.m = 2;
    cfg.passages = 10;
    cfg.seed = 5;
    const auto res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.writers.num_passages, 20u);
}

// ---- One suite per text, both executors -------------------------------------
//
// baselines/faa_protocol.inc and baselines/phase_fair_protocol.inc each run
// the same cases on their simulated and native executors. The simulated
// tier drives each process a section at a time, alone; contention is a
// seeded random schedule under the mutual-exclusion checker. The native
// tier calls the lock directly, and from threads.

enum class Cmd : std::uint8_t { Idle, Enter, Exit };

/// Takes p's entry or exit section on command, idling on a local step in
/// between, so a test can move one process a section at a time.
sim::SimTask<void> serve(sim::SimRWLock& lock, sim::Process& p, Cmd* cmd) {
    for (;;) {
        co_await p.local_step();
        if (*cmd == Cmd::Enter && p.is_reader()) {
            co_await lock.reader_entry(p);
        } else if (*cmd == Cmd::Enter) {
            co_await lock.writer_entry(p);
        } else if (p.is_reader()) {
            co_await lock.reader_exit(p);
        } else {
            co_await lock.writer_exit(p);
        }
        *cmd = Cmd::Idle;
    }
}

template <class Lock>
class SimRwTier {
   public:
    SimRwTier(std::uint32_t n, std::uint32_t m)
        : lock_(sys_.memory(), n, m), n_(n), cmds_(n + m, Cmd::Idle) {
        for (std::uint32_t i = 0; i < n + m; ++i) {
            sim::Process& p = sys_.add_process(i < n ? sim::Role::Reader
                                                     : sim::Role::Writer);
            p.set_task(serve(lock_, p, &cmds_[i]));
        }
        sys_.start_all();
    }

    void lock_shared(std::uint32_t r) { EXPECT_TRUE(run(r, Cmd::Enter)); }
    void unlock_shared(std::uint32_t r) { EXPECT_TRUE(run(r, Cmd::Exit)); }
    void lock(std::uint32_t w) { EXPECT_TRUE(run(n_ + w, Cmd::Enter)); }
    void unlock(std::uint32_t w) { EXPECT_TRUE(run(n_ + w, Cmd::Exit)); }
    /// Starts writer w's entry: true when 5000 of its own steps, with
    /// everyone else standing still, do not get it in.
    bool lock_blocks(std::uint32_t w) {
        return !run(n_ + w, Cmd::Enter, 5'000);
    }
    void finish_lock(std::uint32_t w) { EXPECT_TRUE(run(n_ + w, Cmd::Enter)); }

    /// n readers and m writers, 4 passages each, under RandomScheduler.
    static std::uint64_t violations(std::uint32_t n, std::uint32_t m,
                                    std::uint64_t seed) {
        sim::System sys(Protocol::WriteBack);
        Lock lock(sys.memory(), n, m);
        sim::MutualExclusionChecker checker(/*throw_on_violation=*/false);
        sys.add_observer(&checker);
        sim::DriveConfig dc;
        dc.passages = 4;
        dc.cs_steps = 2;
        for (std::uint32_t i = 0; i < n + m; ++i) {
            sim::install(lock, sys.add_process(i < n ? sim::Role::Reader
                                                     : sim::Role::Writer),
                         dc);
        }
        sim::RandomScheduler sched(seed);
        EXPECT_TRUE(sim::run(sys, sched, 1'000'000).all_finished);
        sys.check_failures();
        return checker.violations();
    }

   private:
    /// Gives process `pid` a command (unless it is still on one) and runs
    /// it alone until it is idle again or `budget` steps pass.
    bool run(std::uint32_t pid, Cmd cmd, std::uint64_t budget = 100'000) {
        if (cmds_[pid] == Cmd::Idle) {
            cmds_[pid] = cmd;
        }
        sim::run_solo(sys_, pid, budget, [&](const sim::Process&) {
            return cmds_[pid] == Cmd::Idle;
        });
        sys_.check_failures();
        return cmds_[pid] == Cmd::Idle;
    }

    sim::System sys_{Protocol::WriteBack};
    Lock lock_;
    std::uint32_t n_;
    std::vector<Cmd> cmds_;
};

template <class Lock>
class NativeRwTier {
   public:
    NativeRwTier(std::uint32_t /*n*/, std::uint32_t m) : lock_(m) {}
    NativeRwTier(const NativeRwTier&) = delete;
    NativeRwTier& operator=(const NativeRwTier&) = delete;
    ~NativeRwTier() {
        if (writer_.joinable()) {
            writer_.join();  // A case that failed before finish_lock.
        }
    }

    void lock_shared(std::uint32_t r) { lock_.lock_shared(r); }
    void unlock_shared(std::uint32_t r) { lock_.unlock_shared(r); }
    void lock(std::uint32_t w) { lock_.lock(w); }
    void unlock(std::uint32_t w) { lock_.unlock(w); }
    /// Starts writer w's lock on a thread: true when it is not in after
    /// 20 ms.
    bool lock_blocks(std::uint32_t w) {
        writer_ = std::thread([this, w] {
            lock_.lock(w);
            acquired_.store(true);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return !acquired_.load();
    }
    void finish_lock(std::uint32_t /*w*/) {
        writer_.join();
        EXPECT_TRUE(acquired_.load());
    }

    /// n reader and m writer threads, 2000 passages each.
    static std::uint64_t violations(std::uint32_t n, std::uint32_t m,
                                    std::uint64_t /*seed*/) {
        Lock lock(m);
        std::atomic<int> readers{0};
        std::atomic<int> writers{0};
        std::atomic<std::uint64_t> violations{0};
        std::vector<std::thread> threads;
        for (std::uint32_t i = 0; i < n + m; ++i) {
            threads.emplace_back([&, i] {
                for (int k = 0; k < 2000; ++k) {
                    if (i < n) {
                        lock.lock_shared(i);
                        readers.fetch_add(1);
                        if (writers.load() != 0) {
                            violations.fetch_add(1);
                        }
                        readers.fetch_sub(1);
                        lock.unlock_shared(i);
                    } else {
                        lock.lock(i - n);
                        if (writers.fetch_add(1) != 0 || readers.load() != 0) {
                            violations.fetch_add(1);
                        }
                        writers.fetch_sub(1);
                        lock.unlock(i - n);
                    }
                }
            });
        }
        for (auto& t : threads) {
            t.join();
        }
        return violations.load();
    }

   private:
    Lock lock_;
    std::thread writer_;
    std::atomic<bool> acquired_{false};
};

template <class Tier>
class RwText : public ::testing::Test {};
TYPED_TEST_SUITE_P(RwText);

TYPED_TEST_P(RwText, SoloPassagesLeaveTheLockFree) {
    TypeParam lock(2, 2);
    for (int round = 0; round < 2; ++round) {
        lock.lock_shared(0);
        lock.unlock_shared(0);
        lock.lock(0);
        lock.unlock(0);
        lock.lock(1);
        lock.unlock(1);
        lock.lock_shared(1);
        lock.unlock_shared(1);
    }
}

TYPED_TEST_P(RwText, ReadersShareTheCs) {
    TypeParam lock(3, 1);
    for (std::uint32_t r = 0; r < 3; ++r) {
        lock.lock_shared(r);  // Each gets in while the others hold it.
    }
    for (std::uint32_t r = 0; r < 3; ++r) {
        lock.unlock_shared(r);
    }
    lock.lock(0);
    lock.unlock(0);
}

TYPED_TEST_P(RwText, WriterWaitsForTheReaderInTheCs) {
    TypeParam lock(2, 1);
    lock.lock_shared(0);
    EXPECT_TRUE(lock.lock_blocks(0));
    lock.unlock_shared(0);
    lock.finish_lock(0);
    lock.unlock(0);
    lock.lock_shared(1);
    lock.unlock_shared(1);
}

TYPED_TEST_P(RwText, ExclusionUnderContention) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        EXPECT_EQ(TypeParam::violations(3, 2, seed), 0u) << "seed " << seed;
    }
}

REGISTER_TYPED_TEST_SUITE_P(RwText, SoloPassagesLeaveTheLockFree,
                            ReadersShareTheCs, WriterWaitsForTheReaderInTheCs,
                            ExclusionUnderContention);
using FaaTiers = ::testing::Types<SimRwTier<FaaSimRWLock>,
                                  NativeRwTier<native::FaaRWLock>>;
using PhaseFairTiers = ::testing::Types<SimRwTier<PhaseFairSimRWLock>,
                                        NativeRwTier<native::PhaseFairRWLock>>;
INSTANTIATE_TYPED_TEST_SUITE_P(Faa, RwText, FaaTiers);
INSTANTIATE_TYPED_TEST_SUITE_P(PhaseFair, RwText, PhaseFairTiers);

TEST(ReaderPrefLock, ReaderSectionsGrowWithN) {
    // Tradeoff positioning: writer entry is Θ(log m) independent of n, so
    // reader exit must grow with n -- here it does, Θ(log n) via rmutex.
    double exit_small = 0, exit_big = 0;
    for (const std::uint32_t n : {4u, 256u}) {
        ExperimentConfig cfg;
        cfg.lock = LockKind::ReaderPref;
        cfg.n = n;
        cfg.m = 1;
        cfg.passages = 2;
        cfg.sched = SchedKind::RoundRobin;
        const auto res = run_experiment(cfg);
        ASSERT_TRUE(res.finished);
        (n == 4 ? exit_small : exit_big) =
            res.readers.mean_rmrs[static_cast<int>(Section::Exit)];
    }
    EXPECT_GT(exit_big, 1.5 * exit_small);
}


// ---- Every simulated step, pinned -------------------------------------------
//
// n readers and m writers, 3 passages each, under seeded random schedules
// (tests/step_digest.hpp). ReaderPref and BigMutex climb
// TournamentSimMutex; StaleGate is the FAA lock's mutant writer.

enum class Pinned { Faa, StaleGate, PhaseFair, ReaderPref, BigMutex, Centralized };

std::unique_ptr<sim::SimRWLock> make_pinned(Pinned kind, Memory& mem,
                                            std::uint32_t n,
                                            std::uint32_t m) {
    switch (kind) {
        case Pinned::Faa:
            return std::make_unique<FaaSimRWLock>(mem, n, m);
        case Pinned::StaleGate:
            return std::make_unique<FaaSimRWLock>(mem, n, m,
                                                  FaaMutant::StaleGate);
        case Pinned::PhaseFair:
            return std::make_unique<PhaseFairSimRWLock>(mem, n, m);
        case Pinned::ReaderPref:
            return std::make_unique<ReaderPrefSimRWLock>(mem, n, m);
        case Pinned::BigMutex:
            return std::make_unique<MutexSimRWLock>(mem, n, m);
        case Pinned::Centralized:
            return std::make_unique<CentralizedSimRWLock>(mem, n, m);
    }
    return nullptr;
}

TEST(BaselineStepDigest, EverySimulatedStepIsPinned) {
    struct Case {
        Pinned kind;
        std::uint32_t n, m;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t steps;
    };
    const Case cases[] = {
        {Pinned::Faa, 2, 1, 0, 0x54cc39399f8ea603ull, 100},
        {Pinned::Faa, 2, 1, 1, 0x7e7435e572a2aa1dull, 98},
        {Pinned::Faa, 2, 1, 2, 0xd2e21b3f9a65017full, 131},
        {Pinned::Faa, 3, 2, 0, 0x3965eff6b06c21dcull, 184},
        {Pinned::Faa, 3, 2, 1, 0x563a89fd65ecb502ull, 157},
        {Pinned::Faa, 3, 2, 2, 0x9f1fde80a3d403a9ull, 193},
        {Pinned::StaleGate, 2, 1, 0, 0x8dacc14f73966256ull, 100},
        {Pinned::StaleGate, 2, 1, 1, 0x68485471ac1b35e8ull, 95},
        {Pinned::StaleGate, 2, 1, 2, 0x4bc61fd91556d788ull, 102},
        {Pinned::StaleGate, 3, 2, 0, 0x6e2a51be94ffb0a1ull, 178},
        {Pinned::StaleGate, 3, 2, 1, 0xebe8ab75759705a6ull, 152},
        {Pinned::StaleGate, 3, 2, 2, 0xfc97f0a8f636f060ull, 188},
        {Pinned::PhaseFair, 2, 1, 0, 0xe48a89c0add283ebull, 78},
        {Pinned::PhaseFair, 2, 1, 1, 0x4547e7f963b0d46dull, 65},
        {Pinned::PhaseFair, 2, 1, 2, 0xe2304a1c22c7b5c1ull, 55},
        {Pinned::PhaseFair, 3, 2, 0, 0xa19b10004284a91dull, 173},
        {Pinned::PhaseFair, 3, 2, 1, 0x4115d9032d490644ull, 137},
        {Pinned::PhaseFair, 3, 2, 2, 0xfeb65ce2935636b2ull, 171},
        {Pinned::ReaderPref, 2, 1, 0, 0x9d29dabf82abceafull, 190},
        {Pinned::ReaderPref, 2, 1, 1, 0xc0f2ebcc04b0d9e0ull, 199},
        {Pinned::ReaderPref, 2, 1, 2, 0xb9cc255c64b025c5ull, 188},
        {Pinned::ReaderPref, 3, 2, 0, 0x24e61b5db13cb54aull, 586},
        {Pinned::ReaderPref, 3, 2, 1, 0xfbf8c2302ca80e66ull, 633},
        {Pinned::ReaderPref, 3, 2, 2, 0xe53cf198f27e3d99ull, 622},
        {Pinned::BigMutex, 2, 1, 0, 0x0488a193db8521f1ull, 147},
        {Pinned::BigMutex, 2, 1, 1, 0x4a5dd840ceb3a83eull, 164},
        {Pinned::BigMutex, 2, 1, 2, 0x521884e9d201c907ull, 166},
        {Pinned::BigMutex, 3, 2, 0, 0xebfe8810fcbe12afull, 511},
        {Pinned::BigMutex, 3, 2, 1, 0xf2ebd0502ad1bb3full, 509},
        {Pinned::BigMutex, 3, 2, 2, 0x06e234cbee45d78aull, 432},
        {Pinned::Centralized, 2, 1, 0, 0xe8e9d7d35d3dd463ull, 81},
        {Pinned::Centralized, 2, 1, 1, 0xadbb0d444f92de63ull, 104},
        {Pinned::Centralized, 2, 1, 2, 0x0d542440f16478d6ull, 83},
        {Pinned::Centralized, 3, 2, 0, 0xd7490e4f5d54b719ull, 167},
        {Pinned::Centralized, 3, 2, 1, 0x8a04884538a9747eull, 191},
        {Pinned::Centralized, 3, 2, 2, 0x1db604a4df3f9f6eull, 186},
    };
    for (const Case& c : cases) {
        const testkit::DigestRun r = testkit::digest_run(
            Protocol::WriteBack,
            [&](Memory& mem) { return make_pinned(c.kind, mem, c.n, c.m); },
            c.n, c.m, c.seed, /*hash_names=*/true, 1'000'000);
        const std::string label =
            std::to_string(static_cast<int>(c.kind)) + " n=" +
            std::to_string(c.n) + " m=" + std::to_string(c.m) + " seed " +
            std::to_string(c.seed);
        EXPECT_TRUE(r.finished) << label;
        EXPECT_EQ(r.steps, c.steps) << label;
        EXPECT_EQ(r.digest, c.digest) << label;
    }
}

}  // namespace
}  // namespace rwr::baselines
