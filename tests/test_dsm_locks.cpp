// The homed-spin invariants behind the CC/DSM separation (bench_separation,
// E15): for every simulated lock with a DSM mode -- Yang-Anderson
// tournament, MCS, the recoverable JJJ ticket tree, A_f with
// dsm_local_spin -- a parked waiter's busy-wait loop must touch only
// variables homed in its own segment (bounded RMRs while it spins), while
// the unhomed builds of the same locks pay one RMR per re-read. Plus
// correctness of the new DSM machinery itself: the Y-A lock and the JJJ
// wake layer never change who wins, only where the losers spin.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "mutex/sim_mutex.hpp"
#include "recover/recover_experiment.hpp"
#include "recover/recoverable_jjj_mutex.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr {
namespace {

using mutex::McsSimMutex;
using mutex::SimMutex;
using mutex::TournamentSimMutex;
using mutex::YaTournamentSimMutex;
using recover::RecoverableJJJMutex;
using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

/// Exclusivity tracked with a plain counter, like test_mutex's harness.
struct Harness {
    int in_cs = 0;
    int max_seen = 0;
    std::uint64_t total_entries = 0;
};

SimTask<void> mutex_passages(SimMutex& mx, Process& p, std::uint32_t slot,
                             int passages, Harness* h) {
    for (int k = 0; k < passages; ++k) {
        co_await mx.enter(p, slot);
        h->in_cs += 1;
        h->max_seen = std::max(h->max_seen, h->in_cs);
        h->total_entries += 1;
        co_await p.local_step();
        h->in_cs -= 1;
        co_await mx.exit(p, slot);
    }
}

SimTask<void> jjj_passages(RecoverableJJJMutex& mx, Process& p,
                           std::uint32_t slot, int passages, Harness* h) {
    for (int k = 0; k < passages; ++k) {
        co_await mx.enter(p, slot);
        h->in_cs += 1;
        h->max_seen = std::max(h->max_seen, h->in_cs);
        h->total_entries += 1;
        co_await p.local_step();
        h->in_cs -= 1;
        co_await mx.exit_slot(p, slot);
    }
}

// ---- Yang-Anderson correctness ---------------------------------------------

TEST(YaTournament, ExhaustiveSmallSchedules) {
    // All interleavings of the first 12 scheduling choices, 2 processes x
    // 2 passages: the side/turn/spin handshake must preserve mutual
    // exclusion on every explored schedule. Homed build (homes are
    // accounting-only, but this is the build E15 trusts).
    long long schedules = 0;
    std::vector<std::size_t> prefix;
    std::function<void(int)> dfs = [&](int depth) {
        System sys(Protocol::WriteThrough);
        YaTournamentSimMutex mx(sys.memory(), "mx", 2, ProcId{0});
        auto h = std::make_unique<Harness>();
        for (std::uint32_t s = 0; s < 2; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, 2, h.get()));
        }
        sys.start_all();
        for (const auto c : prefix) {
            const auto r = sys.runnable();
            if (r.empty()) break;
            sys.step(r[c % r.size()]);
        }
        const auto width = sys.runnable().size();
        sim::RoundRobinScheduler rr;
        sim::run(sys, rr, 100'000);
        sys.check_failures();
        ASSERT_EQ(h->max_seen, 1);
        ASSERT_EQ(h->total_entries, 4u);
        ++schedules;
        if (depth == 0 || width <= 1) return;
        for (std::size_t c = 0; c < width; ++c) {
            prefix.push_back(c);
            dfs(depth - 1);
            prefix.pop_back();
        }
    };
    dfs(12);
    EXPECT_GT(schedules, 1000);
}

TEST(YaTournament, RejectsBadSizesBeforeAllocating) {
    // 0x80000001 and 0xffffffff used to reach std::bit_ceil(m), whose
    // result does not fit in 32 bits, before any check.
    for (const std::uint32_t m : {0u, 0x80000001u, 0xffffffffu}) {
        System sys(Protocol::Dsm);
        EXPECT_THROW(YaTournamentSimMutex(sys.memory(), "mx", m, ProcId{0}),
                     std::invalid_argument)
            << "m=" << m;
        EXPECT_EQ(sys.memory().num_variables(), 0u) << "m=" << m;
    }
}

TEST(YaTournament, MutualExclusionAndProgressUnderRandomSchedules) {
    for (const std::uint32_t m : {2u, 3u, 5u, 8u}) {
        for (const bool homed : {false, true}) {
            for (std::uint64_t seed = 0; seed < 4; ++seed) {
                System sys(Protocol::WriteBack);
                YaTournamentSimMutex mx(
                    sys.memory(), "mx", m,
                    homed ? std::optional<ProcId>{0} : std::nullopt);
                auto h = std::make_unique<Harness>();
                constexpr int kPassages = 5;
                for (std::uint32_t s = 0; s < m; ++s) {
                    Process& p = sys.add_process(Role::Writer);
                    p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
                }
                sim::RandomScheduler sched(seed);
                const auto result = sim::run(sys, sched, 5'000'000);
                sys.check_failures();
                ASSERT_TRUE(result.all_finished)
                    << "m=" << m << " homed=" << homed << " seed=" << seed;
                EXPECT_EQ(h->max_seen, 1) << "m=" << m << " seed=" << seed;
                EXPECT_EQ(h->total_entries,
                          static_cast<std::uint64_t>(m) * kPassages);
            }
        }
    }
}

// ---- The homed-spin invariant, lock by lock --------------------------------

/// Parks slot 0's process inside the CS, then lets slot 1's process run
/// `spin_steps` solo steps against the closed door; returns the waiter's
/// total RMRs. The homed locks must keep this O(1) (enqueue/announce only);
/// unhomed spins pay ~one RMR per re-read.
template <typename Lock, typename Passages>
std::uint64_t waiter_rmrs(System& sys, Lock& mx, Passages&& passages,
                          Harness* h, int spin_steps) {
    Process& p0 = sys.add_process(Role::Writer);
    Process& p1 = sys.add_process(Role::Writer);
    p0.set_task(passages(mx, p0, 0, 1, h));
    p1.set_task(passages(mx, p1, 1, 1, h));
    sys.start_all();
    int guard = 0;
    while (h->in_cs == 0 && guard++ < 1000) {
        sys.step(p0.id());
    }
    EXPECT_EQ(h->in_cs, 1);
    for (int i = 0; i < spin_steps; ++i) {
        sys.step(p1.id());
    }
    const std::uint64_t rmrs = p1.stats().total_rmrs();
    sim::RoundRobinScheduler rr;
    EXPECT_TRUE(sim::run(sys, rr, 100'000).all_finished);
    EXPECT_EQ(h->max_seen, 1);
    return rmrs;
}

TEST(YaTournament, WaiterSpinsLocallyUnderDsm) {
    System sys(Protocol::Dsm);
    YaTournamentSimMutex mx(sys.memory(), "mx", 2, ProcId{0});
    auto h = std::make_unique<Harness>();
    const auto rmrs = waiter_rmrs(sys, mx, mutex_passages, h.get(), 500);
    // Entry writes (comp/turn are shared), one nudge of the rival's cell,
    // one turn re-read: O(1), not O(spins).
    EXPECT_LE(rmrs, 12u);
}

TEST(PetersonTournament, UnhomedSpinPaysPerRereadUnderDsm) {
    // The structural ablation: the Peterson tree's per-node flags are spun
    // on by whichever rival shows up, so no home assignment helps -- the
    // 500-step wait shows up in the RMR ledger near-verbatim.
    System sys(Protocol::Dsm);
    TournamentSimMutex mx(sys.memory(), "mx", 2);
    auto h = std::make_unique<Harness>();
    const auto rmrs = waiter_rmrs(sys, mx, mutex_passages, h.get(), 500);
    EXPECT_GE(rmrs, 100u);
}

TEST(McsLock, SerializedPassagesCostO1DsmRmrsPerPassage) {
    // Satellite claim for the homed-tail MCS: with queue nodes homed at
    // their owners and the tail at the coordinator, an uncontended passage
    // costs O(1) DSM RMRs -- independent of m (each non-coordinator pays
    // the two tail CASes, nothing grows). Contended round-robin cells are
    // asserted relatively (vs CC) in bench_separation, where tail CAS
    // retries make every model's cost Theta(m).
    for (const std::uint32_t m : {2u, 8u}) {
        System sys(Protocol::Dsm);
        McsSimMutex mx(sys.memory(), "mx", m, /*owner_base=*/0);
        auto h = std::make_unique<Harness>();
        constexpr int kPassages = 3;
        for (std::uint32_t s = 0; s < m; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
        }
        sys.start_all();
        for (std::uint32_t s = 0; s < m; ++s) {
            sim::run_solo(sys, s, 100'000);  // One process at a time.
            ASSERT_TRUE(sys.process(s).finished()) << "m=" << m;
        }
        EXPECT_EQ(h->max_seen, 1);
        const double per_passage =
            static_cast<double>(sys.memory().total_rmrs()) /
            (static_cast<double>(m) * kPassages);
        EXPECT_LE(per_passage, 6.0) << "m=" << m;
    }
}

TEST(McsLock, CoordinatorSoloPassagesAreRmrFreeUnderDsm) {
    // Everything -- tail included -- is homed at the coordinator, so its
    // own uncontended passages are entirely local.
    System sys(Protocol::Dsm);
    McsSimMutex mx(sys.memory(), "mx", 1, /*owner_base=*/0);
    auto h = std::make_unique<Harness>();
    Process& p = sys.add_process(Role::Writer);
    p.set_task(mutex_passages(mx, p, 0, 10, h.get()));
    sys.start_all();
    sim::run_solo(sys, 0, 100'000);
    ASSERT_TRUE(p.finished());
    EXPECT_EQ(sys.memory().total_rmrs(), 0u);
}

// ---- JJJ wake layer --------------------------------------------------------

TEST(JjjDsm, MutualExclusionWithWakeLayerUnderRandomSchedules) {
    // The wake layer is advisory: grant[] stays authoritative, so enabling
    // it must never change who may enter, on any schedule.
    for (const std::uint32_t m : {2u, 3u, 5u}) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            System sys(Protocol::WriteBack);
            RecoverableJJJMutex mx(sys.memory(), "mx", m,
                                   /*owner_base=*/ProcId{0});
            auto h = std::make_unique<Harness>();
            constexpr int kPassages = 5;
            for (std::uint32_t s = 0; s < m; ++s) {
                Process& p = sys.add_process(Role::Writer);
                p.set_task(jjj_passages(mx, p, s, kPassages, h.get()));
            }
            sim::RandomScheduler sched(seed);
            const auto result = sim::run(sys, sched, 5'000'000);
            sys.check_failures();
            ASSERT_TRUE(result.all_finished) << "m=" << m << " seed=" << seed;
            EXPECT_EQ(h->max_seen, 1) << "m=" << m << " seed=" << seed;
            EXPECT_EQ(h->total_entries,
                      static_cast<std::uint64_t>(m) * kPassages);
        }
    }
}

TEST(JjjDsm, WaiterSpinsLocallyOnItsWakeCell) {
    System sys(Protocol::Dsm);
    RecoverableJJJMutex mx(sys.memory(), "mx", 2, /*owner_base=*/ProcId{0});
    auto h = std::make_unique<Harness>();
    const auto rmrs = waiter_rmrs(sys, mx, jjj_passages, h.get(), 500);
    // Ticket acquisition + one register/re-check round, then a pure
    // wcell spin: O(tree height), not O(spins).
    EXPECT_LE(rmrs, 24u);
}

TEST(JjjDsm, UnhomedGrantSpinPaysPerRereadUnderDsm) {
    System sys(Protocol::Dsm);
    RecoverableJJJMutex mx(sys.memory(), "mx", 2);
    auto h = std::make_unique<Harness>();
    const auto rmrs = waiter_rmrs(sys, mx, jjj_passages, h.get(), 500);
    EXPECT_GE(rmrs, 100u);
}

TEST(JjjDsm, EntryCrashWalkStaysCorrectWithTheWakeLayer) {
    // Crash-restart at every entry step IN DSM MODE: the walk crosses the
    // wake-layer window (registration written, grant re-check pending).
    // Recovery must re-register or retire cleanly -- no lost wakeups, no
    // double entry -- under both accounting protocols.
    for (const Protocol proto : {Protocol::WriteBack, Protocol::Dsm}) {
        std::uint64_t steps_covered = 0;
        for (std::uint64_t s = 1; s <= 60; ++s) {
            recover::RecoverExperimentConfig cfg;
            cfg.lock = recover::RecoverLockKind::JJJMutex;
            cfg.protocol = proto;
            cfg.dsm_home = true;
            cfg.n = 0;
            cfg.m = 2;
            cfg.passages = 2;
            cfg.sched = harness::SchedKind::RoundRobin;
            cfg.max_steps = 100000;
            cfg.faults.crash_restart(/*victim=*/0, Section::Entry, s);
            const auto res = recover::run_recover_experiment(cfg);
            ASSERT_TRUE(res.finished)
                << to_string(proto) << " entry step " << s;
            if (res.restarts == 0) {
                break;  // Fell off the section's end: coverage complete.
            }
            EXPECT_EQ(res.me_violations, 0u)
                << to_string(proto) << " entry step " << s << ": "
                << res.first_violation;
            EXPECT_EQ(res.rme_violations, 0u)
                << to_string(proto) << " entry step " << s << ": "
                << res.first_violation;
            ++steps_covered;
        }
        EXPECT_GE(steps_covered, 4u) << to_string(proto);
        EXPECT_LT(steps_covered, 60u) << to_string(proto);
    }
}

// ---- A_f with dsm_local_spin -----------------------------------------------

// dsm_local_spin only moves the reader wait loop onto per-reader gates and
// swaps WL for the Y-A tournament; the RW semantics must be untouched under
// CC and DSM accounting alike. The plain lock's (n, m, f) grid is
// test_af_lock's AfSweep; with m >= 2 the Y-A WL is contended under the
// mutual-exclusion check.
using AfDsmPoint = std::tuple<Protocol, std::uint32_t /*n*/,
                              std::uint32_t /*f*/, std::uint32_t /*m*/>;

class AfDsmSweep : public ::testing::TestWithParam<AfDsmPoint> {};

std::vector<AfDsmPoint> af_dsm_grid() {
    std::vector<AfDsmPoint> grid;
    for (const Protocol proto : {Protocol::WriteBack, Protocol::Dsm}) {
        for (const auto& [n, f] : {std::pair{1u, 1u}, std::pair{5u, 2u},
                                   std::pair{8u, 2u}, std::pair{8u, 4u}}) {
            for (const std::uint32_t m : {1u, 3u}) {
                grid.emplace_back(proto, n, f, m);
            }
        }
    }
    return grid;
}

TEST_P(AfDsmSweep, FullLockStaysCorrect) {
    const auto [proto, n, f, m] = GetParam();
    constexpr std::uint32_t kPassages = 3;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        harness::ExperimentConfig cfg;
        cfg.lock = harness::LockKind::AfDsm;
        cfg.protocol = proto;
        cfg.n = n;
        cfg.m = m;
        cfg.f = f;
        cfg.passages = kPassages;
        cfg.seed = seed;
        cfg.check_mutual_exclusion = true;
        const auto res = harness::run_experiment(cfg);
        ASSERT_TRUE(res.finished) << "seed=" << seed;
        EXPECT_EQ(res.me_violations, 0u) << "seed=" << seed;
        EXPECT_EQ(res.readers.num_passages, std::uint64_t{n} * kPassages);
        EXPECT_EQ(res.writers.num_passages, std::uint64_t{m} * kPassages);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AfDsmSweep, ::testing::ValuesIn(af_dsm_grid()));

TEST(AfDsm, WaitingReaderSpinsOnItsOwnGate) {
    // The E11b scenario, fixed: a reader waiting out a writer's long CS
    // re-reads its OWN gate (homed at itself), so the wait no longer
    // leaks into the DSM RMR count. The plain build's line-36 RSIG spin
    // is the control.
    constexpr std::uint64_t kHold = 512;
    const auto entry_rmrs = [&](harness::LockKind kind) {
        System sys(Protocol::Dsm);
        auto lock = harness::make_sim_lock(kind, sys.memory(), 1, 1, 1);
        Process& r = sys.add_process(Role::Reader);
        Process& w = sys.add_process(Role::Writer);
        sim::DriveConfig rc;
        rc.passages = 1;
        r.set_task(sim::drive(*lock, r, rc));
        sim::DriveConfig wc;
        wc.passages = 1;
        wc.cs_steps = kHold;
        w.set_task(sim::drive(*lock, w, wc));
        sys.start_all();
        sim::run_solo(sys, w.id(), 100'000,
                      [](const Process& p) { return p.in_cs(); });
        while (w.in_cs() && w.runnable()) {
            sys.step(r.id());
            sys.step(w.id());
        }
        sim::RoundRobinScheduler rr;
        EXPECT_TRUE(sim::run(sys, rr, 100'000).all_finished);
        return r.stats().rmrs_in(Section::Entry);
    };
    EXPECT_LE(entry_rmrs(harness::LockKind::AfDsm), 30u);
    EXPECT_GE(entry_rmrs(harness::LockKind::Af), kHold / 2);
}

}  // namespace
}  // namespace rwr
