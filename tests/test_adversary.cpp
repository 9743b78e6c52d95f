// Tests for the Theorem 5 lower-bound adversary: the construction must run
// to completion against every Concurrent-Entering lock, its soundness
// checks (Lemma 1, Lemma 2's 3x growth, Lemma 4) must hold for
// read/write/CAS algorithms, and the quantitative tradeoff
//   reader-exit RMRs >= log3(n / writer-entry RMRs)
// must emerge from the measurements.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <tuple>
#include <vector>

#include "adversary/adversary.hpp"

namespace rwr::adversary {
namespace {

using harness::LockKind;

AdversaryResult run(LockKind lock, std::uint32_t n, std::uint32_t f,
                    Protocol proto = Protocol::WriteBack) {
    AdversaryConfig cfg;
    cfg.lock = lock;
    cfg.protocol = proto;
    cfg.n = n;
    cfg.f = f;
    return run_adversary(cfg);
}

// --- A_f under the adversary ---------------------------------------------------

using AfAdversaryPoint =
    std::tuple<Protocol, std::uint32_t /*n*/, std::uint32_t /*f*/>;

class AfAdversary : public ::testing::TestWithParam<AfAdversaryPoint> {};

/// Every valid (f <= n) point of the sweep.
std::vector<AfAdversaryPoint> af_adversary_grid() {
    std::vector<AfAdversaryPoint> grid;
    for (const Protocol proto : {Protocol::WriteThrough, Protocol::WriteBack}) {
        for (const std::uint32_t n : {4u, 16u, 64u, 256u}) {
            for (const std::uint32_t f : {1u, 2u, 8u, 64u}) {
                if (f <= n) {
                    grid.emplace_back(proto, n, f);
                }
            }
        }
    }
    return grid;
}

TEST_P(AfAdversary, ConstructionSoundAndTight) {
    const auto [proto, n, f] = GetParam();
    const auto res = run(LockKind::Af, n, f, proto);
    ASSERT_TRUE(res.completed) << res.note;
    ASSERT_TRUE(res.e1_feasible);

    // Soundness of the proof machinery.
    EXPECT_EQ(res.lemma1_violations, 0u);
    EXPECT_TRUE(res.lemma4_holds)
        << "writer aware of only " << res.writer_awareness << " processes";
    EXPECT_LE(res.max_growth_factor, 3.0 + 1e-9)
        << "Lemma 2's bound must hold for a read/write/CAS algorithm";

    // Theorem 5 lower bound: r >= log3(n/f) (exact, not asymptotic, since
    // each batch is one expanding step per remaining reader).
    EXPECT_GE(static_cast<double>(res.r) + 1e-9, std::floor(res.log3_bound));

    // Lemma 1 consequence: the survivor's expanding steps all cost RMRs.
    EXPECT_LE(res.survivor_expanding_steps, res.max_reader_exit_rmrs + 1);

    // Tightness (Theorem 18): A_f's reader exit stays O(log(n/f)) even
    // under the adversary. Constant: C.add is <= 2 + 8*levels steps, plus
    // RSIG read and helper; every step is at most one RMR.
    const std::uint32_t K = (n + f - 1) / f;
    const auto levels =
        static_cast<std::uint64_t>(std::bit_width(std::bit_ceil(K)) - 1);
    EXPECT_LE(res.max_reader_exit_rmrs, 8 * levels + 8)
        << "n=" << n << " f=" << f << " K=" << K;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AfAdversary,
                         ::testing::ValuesIn(af_adversary_grid()));

TEST(AfAdversary, IterationCountGrowsWithN) {
    // f = 1: r must grow as n grows (Θ(log n)).
    const auto r16 = run(LockKind::Af, 16, 1);
    const auto r1024 = run(LockKind::Af, 1024, 1);
    ASSERT_TRUE(r16.completed && r1024.completed);
    EXPECT_GT(r1024.r, r16.r);
    EXPECT_GE(r1024.r, static_cast<std::uint64_t>(r1024.log3_bound));
}

TEST(AfAdversary, IterationCountShrinksWithF) {
    // n fixed: raising f (more groups, smaller K) must shrink r.
    const auto rf1 = run(LockKind::Af, 256, 1);
    const auto rf64 = run(LockKind::Af, 256, 64);
    ASSERT_TRUE(rf1.completed && rf64.completed);
    EXPECT_GT(rf1.r, rf64.r);
}

TEST(AfAdversary, WriterEntryCostGrowsWithF) {
    const auto rf1 = run(LockKind::Af, 256, 1);
    const auto rf64 = run(LockKind::Af, 256, 64);
    ASSERT_TRUE(rf1.completed && rf64.completed);
    EXPECT_GT(rf64.writer_entry_rmrs, 4 * rf1.writer_entry_rmrs);
}

// --- Baselines under the adversary ----------------------------------------------

TEST(CentralizedAdversary, ReaderExitForcedToLinearRmrs) {
    // The CAS-retry exit lets the adversary stall all but ~one reader per
    // batch: r = Θ(n) and some reader pays Θ(n) RMRs in its exit alone.
    const auto res = run(LockKind::Centralized, 128, 1);
    ASSERT_TRUE(res.completed) << res.note;
    EXPECT_EQ(res.lemma1_violations, 0u);
    EXPECT_TRUE(res.lemma4_holds);
    EXPECT_LE(res.max_growth_factor, 3.0 + 1e-9);
    EXPECT_GE(res.r, 128u / 4);
    EXPECT_GE(res.max_reader_exit_rmrs, 128u / 4);
    // And its writer entry is cheap -- the tradeoff is honored from the
    // expensive-reader end.
    EXPECT_LE(res.writer_entry_rmrs, 8u);
}

TEST(ReaderPrefAdversary, LogarithmicReaderExit) {
    const auto res = run(LockKind::ReaderPref, 64, 1);
    ASSERT_TRUE(res.completed) << res.note;
    EXPECT_EQ(res.lemma1_violations, 0u);
    EXPECT_TRUE(res.lemma4_holds);
    EXPECT_LE(res.max_growth_factor, 3.0 + 1e-9);
    // Writer entry independent of n (one mutex of m+1 = 2 slots).
    EXPECT_LE(res.writer_entry_rmrs, 10u);
    // So reader exit must be >= log3(n / O(1)) -- and it is (rmutex tree).
    EXPECT_GE(static_cast<double>(res.max_reader_exit_rmrs),
              res.log3_bound - 1.0);
}

TEST(FaaAdversary, EscapesTheTradeoff) {
    // Fetch-and-add is outside the {read, write, CAS} set: both the writer
    // entry AND the reader exit stay O(1) as n grows -- impossible under
    // Theorem 5 -- and the mechanism is visible: knowledge grows by more
    // than 3x per batch (Lemma 2's CAS-triviality argument fails for FAA).
    const auto small = run(LockKind::Faa, 16, 1);
    const auto big = run(LockKind::Faa, 512, 1);
    ASSERT_TRUE(small.completed && big.completed) << big.note;
    EXPECT_LE(big.max_reader_exit_rmrs, 3u);
    EXPECT_LE(big.writer_entry_rmrs, 12u);
    EXPECT_EQ(big.max_reader_exit_rmrs, small.max_reader_exit_rmrs);
    EXPECT_GT(big.max_growth_factor, 3.0);
    // Lemma 4 still holds -- the writer IS aware of all readers; FAA just
    // lets one variable carry all that knowledge at unit cost.
    EXPECT_TRUE(big.lemma4_holds);
}

TEST(BigMutexAdversary, E1Infeasible) {
    // The construction requires Concurrent Entering; the big-mutex
    // baseline cannot put two readers in the CS, so E1 must fail cleanly.
    const auto res = run(LockKind::BigMutex, 4, 1);
    EXPECT_FALSE(res.e1_feasible);
    EXPECT_FALSE(res.completed);
    EXPECT_NE(res.note.find("Concurrent Entering"), std::string::npos);
}

// --- Edge cases -----------------------------------------------------------------

TEST(AdversaryEdges, SingleReader) {
    const auto res = run(LockKind::Af, 1, 1);
    ASSERT_TRUE(res.completed) << res.note;
    EXPECT_EQ(res.log3_bound, 0.0);
    EXPECT_TRUE(res.lemma4_holds);
    EXPECT_EQ(res.lemma1_violations, 0u);
}

TEST(AdversaryEdges, FEqualsNMeansNoIterations) {
    // K = 1: each reader owns its counters; exits touch nothing another
    // reader wrote, so no exit step is ever expanding.
    const auto res = run(LockKind::Af, 32, 32);
    ASSERT_TRUE(res.completed) << res.note;
    EXPECT_EQ(res.r, 0u);
    EXPECT_EQ(res.survivor_expanding_steps, 0u);
    // The writer still pays Θ(n) -- and still learns about every reader
    // (through the f counter roots it reads).
    EXPECT_GE(res.writer_entry_rmrs, 32u);
    EXPECT_TRUE(res.lemma4_holds);
}

TEST(AdversaryEdges, IterationCapReportsCleanly) {
    AdversaryConfig cfg;
    cfg.lock = LockKind::Centralized;  // Needs ~n iterations...
    cfg.n = 64;
    cfg.f = 1;
    cfg.iteration_cap = 5;  // ...but we only allow 5.
    const auto res = run_adversary(cfg);
    EXPECT_FALSE(res.completed);
    EXPECT_NE(res.note.find("cap"), std::string::npos);
    EXPECT_EQ(res.r, 5u);
}

TEST(AdversaryEdges, WriteThroughAndWriteBackAgreeOnR) {
    // r counts expanding steps, which are knowledge-level events: the
    // protocol choice must not change the iteration structure.
    const auto wt = run(LockKind::Af, 128, 4, Protocol::WriteThrough);
    const auto wb = run(LockKind::Af, 128, 4, Protocol::WriteBack);
    ASSERT_TRUE(wt.completed && wb.completed);
    EXPECT_EQ(wt.r, wb.r);
    EXPECT_EQ(wt.survivor_expanding_steps, wb.survivor_expanding_steps);
}

// --- The quantitative tradeoff across all subject locks -------------------------

TEST(Tradeoff, ExitRmrsDominateLog3OfNOverWriterCost) {
    // Theorem 5, measured form: for every read/write/CAS lock,
    //   max reader-exit RMRs >= log3(n / max(1, writer-entry RMRs)) - 1.
    for (const LockKind kind :
         {LockKind::Af, LockKind::Centralized, LockKind::ReaderPref}) {
        for (const std::uint32_t n : {16u, 64u, 256u}) {
            const auto res = run(kind, n, /*f=*/1);
            ASSERT_TRUE(res.completed)
                << harness::to_string(kind) << ": " << res.note;
            const double bound =
                std::log(static_cast<double>(n) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, res.writer_entry_rmrs))) /
                std::log(3.0);
            EXPECT_GE(static_cast<double>(res.max_reader_exit_rmrs),
                      bound - 1.0)
                << harness::to_string(kind) << " n=" << n;
        }
    }
}

}  // namespace
}  // namespace rwr::adversary
