// White-box property tests of Algorithm 1's internal protocol, enforced on
// every step of randomized executions:
//
//  * Counter invariants: for every group i, 0 <= W[i] <= C[i] <= K at every
//    configuration (W counts waiting readers, a subset of the readers C
//    counts as being in a passage -- cf. paper Observation 6).
//  * Handshake uniqueness: per writer passage (sequence number) and group,
//    at most ONE successful PROCEED CAS (line 45) and at most ONE
//    successful CS CAS (line 52) -- "the semantics of CAS ... ensure that
//    exactly one reader succeeds in signalling q".
//  * WSIG transition discipline: successful CASes on WSIG[i] only ever
//    produce the transitions BOT->PROCEED and WAIT->CS, always within the
//    same sequence number.
//  * Single-writer instantiation: with m = 1 the writers' lock WL
//    degenerates to an empty tree, so the m=1 lock IS the paper's
//    single-writer lock with zero WL overhead.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/af_lock_sim.hpp"
#include "core/signals.hpp"
#include "sim/checker.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::core {
namespace {

using sim::Process;
using sim::Role;
using sim::System;

class AfProtocolAuditor final : public sim::StepObserver {
   public:
    AfProtocolAuditor(const AfSimLock& lock) : lock_(lock) {
        for (std::uint32_t g = 0; g < lock.num_groups(); ++g) {
            wsig_group_[lock.wsig_var(g).index] = g;
        }
    }

    void on_step(const System& sys, const Process& p, const Op& op,
                 const OpResult& res) override {
        (void)p;
        // Counter invariants after every step.
        const auto K = lock_.params().group_size();
        for (std::uint32_t g = 0; g < lock_.num_groups(); ++g) {
            const auto c = lock_.peek_c(sys.memory(), g);
            const auto w = lock_.peek_w(sys.memory(), g);
            if (c < 0 || w < 0 || w > c || c > static_cast<std::int64_t>(K)) {
                ++invariant_violations_;
            }
        }
        // Handshake audit.
        if (op.code == OpCode::Cas && res.nontrivial) {
            auto it = wsig_group_.find(op.var.index);
            if (it == wsig_group_.end()) {
                return;
            }
            const Word old_val = res.value;
            const Word new_val = op.arg1;
            if (sig_seq(old_val) != sig_seq(new_val)) {
                ++bad_transitions_;
                return;
            }
            const auto from = sig_ws_op(old_val);
            const auto to = sig_ws_op(new_val);
            const auto key = std::tuple{it->second, sig_seq(new_val), to};
            if (from == WsOp::Bot && to == WsOp::Proceed) {
                ++signals_[key];
            } else if (from == WsOp::Wait && to == WsOp::Cs) {
                ++signals_[key];
            } else {
                ++bad_transitions_;
            }
        }
    }

    [[nodiscard]] std::uint64_t invariant_violations() const {
        return invariant_violations_;
    }
    [[nodiscard]] std::uint64_t bad_transitions() const {
        return bad_transitions_;
    }
    [[nodiscard]] std::uint64_t duplicate_signals() const {
        std::uint64_t dups = 0;
        for (const auto& [key, count] : signals_) {
            if (count > 1) {
                ++dups;
            }
        }
        return dups;
    }
    [[nodiscard]] std::uint64_t total_signals() const {
        std::uint64_t t = 0;
        for (const auto& [key, count] : signals_) {
            t += count;
        }
        return t;
    }

   private:
    const AfSimLock& lock_;
    std::map<std::uint32_t, std::uint32_t> wsig_group_;
    std::map<std::tuple<std::uint32_t, Word, WsOp>, std::uint64_t> signals_;
    std::uint64_t invariant_violations_ = 0;
    std::uint64_t bad_transitions_ = 0;
};

using AfInternalsPoint =
    std::tuple<std::uint32_t /*n*/, std::uint32_t /*m*/, std::uint32_t /*f*/,
               std::uint64_t /*seed*/>;

class AfInternalsSweep : public ::testing::TestWithParam<AfInternalsPoint> {};

/// Every valid (f <= n) point of the sweep.
std::vector<AfInternalsPoint> af_internals_grid() {
    std::vector<AfInternalsPoint> grid;
    for (const std::uint32_t n : {2u, 4u, 8u}) {
        for (const std::uint32_t m : {1u, 2u}) {
            for (const std::uint32_t f : {1u, 2u, 4u}) {
                if (f > n) {
                    continue;
                }
                for (std::uint64_t seed = 0; seed < 5; ++seed) {
                    grid.emplace_back(n, m, f, seed);
                }
            }
        }
    }
    return grid;
}

TEST_P(AfInternalsSweep, ProtocolDiscipline) {
    const auto [n, m, f, seed] = GetParam();
    System sys(Protocol::WriteBack);
    AfParams params{.n = n, .m = m, .f = f};
    AfSimLock lock(sys.memory(), params);
    AfProtocolAuditor auditor(lock);
    sim::MutualExclusionChecker checker(/*throw_on_violation=*/true);
    sys.add_observer(&auditor);
    sys.add_observer(&checker);

    for (std::uint32_t r = 0; r < n; ++r) {
        Process& p = sys.add_process(Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 4;
        p.set_task(sim::drive(lock, p, dc));
    }
    for (std::uint32_t w = 0; w < m; ++w) {
        Process& p = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 4;
        p.set_task(sim::drive(lock, p, dc));
    }
    sim::RandomScheduler sched(seed);
    const auto result = sim::run(sys, sched, 20'000'000);
    sys.check_failures();
    ASSERT_TRUE(result.all_finished);

    EXPECT_EQ(auditor.invariant_violations(), 0u)
        << "0 <= W <= C <= K violated";
    EXPECT_EQ(auditor.bad_transitions(), 0u)
        << "WSIG changed outside the BOT->PROCEED / WAIT->CS discipline";
    EXPECT_EQ(auditor.duplicate_signals(), 0u)
        << "two successful CASes signalled the same handshake";
    // Writers performed passages, so at least some handshakes fired.
    EXPECT_GT(auditor.total_signals(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AfInternalsSweep,
                         ::testing::ValuesIn(af_internals_grid()));

TEST(AfSingleWriter, WlDegeneratesToNothing) {
    // With m = 1, the tournament tree has zero nodes: the writer's entry
    // contains no WL steps at all -- the single-writer lock of Theorem 5
    // comes for free. We verify by counting the writer's entry steps on a
    // quiescent system: exactly 1 (WSEQ) + f (WSIG) + 1 (RSIG) + f (C
    // reads) + f (WSIG) + 1 (RSIG) + f (C reads) = 4f + 3.
    for (const std::uint32_t f : {1u, 2u, 4u}) {
        System sys(Protocol::WriteBack);
        AfParams params{.n = 4, .m = 1, .f = f};
        AfSimLock lock(sys.memory(), params);
        Process& w = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 1;
        w.set_task(sim::drive(lock, w, dc));
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 10'000).all_finished);
        EXPECT_EQ(w.stats().steps_in(Section::Entry), 4u * f + 3u);
    }
}

TEST(AfSoak, ManyPassagesManySequenceNumbers) {
    // 150 writer passages drive WSEQ well past the values any single test
    // sees; the seq-stamped handshakes must keep working (the encoding
    // packs seq << 8, so wraparound is at 2^56 passages -- unreachable;
    // this test guards against accidental truncation of the stamp).
    System sys(Protocol::WriteBack);
    AfParams params{.n = 4, .m = 2, .f = 2};
    AfSimLock lock(sys.memory(), params);
    sim::MutualExclusionChecker checker(true);
    sys.add_observer(&checker);
    for (std::uint32_t r = 0; r < 4; ++r) {
        Process& p = sys.add_process(Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 150;
        p.set_task(sim::drive(lock, p, dc));
    }
    for (std::uint32_t w = 0; w < 2; ++w) {
        Process& p = sys.add_process(Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 150;
        p.set_task(sim::drive(lock, p, dc));
    }
    sim::RandomScheduler sched(77);
    const auto res = sim::run(sys, sched, 100'000'000);
    sys.check_failures();
    ASSERT_TRUE(res.all_finished);
    EXPECT_EQ(checker.violations(), 0u);
    for (ProcId id = 0; id < 6; ++id) {
        EXPECT_EQ(sys.process(id).completed_passages(), 150u);
    }
}

TEST(AfSingleWriter, MultiWriterPaysWlSteps) {
    // Contrast: m = 8 adds 2-process Peterson work per tree level.
    System sys(Protocol::WriteBack);
    AfParams params{.n = 4, .m = 8, .f = 1};
    AfSimLock lock(sys.memory(), params);
    Process& w = sys.add_process(Role::Writer);
    sim::DriveConfig dc;
    dc.passages = 1;
    w.set_task(sim::drive(lock, w, dc));
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 10'000).all_finished);
    EXPECT_GT(w.stats().steps_in(Section::Entry), 4u * 1 + 3u);
}

}  // namespace
}  // namespace rwr::core
