// Sim-backend lock table: protocol correctness (witnessed mutual
// exclusion, liveness on both homed and unhomed variants), the OpStream
// determinism discipline (grid rows bit-identical for any --jobs, streams
// decorrelated across sessions), the homed/unhomed RMR ordering the E17
// assertions build on, and the cross-backend check that the native table
// prices a replayed op stream exactly as the simulator's ledgers do.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "dist/load.hpp"
#include "dist/native_table.hpp"
#include "dist/sim_table.hpp"

namespace rwr::dist {

struct CrossCase {
    TableConfig table;
    std::uint32_t reader_pct;
};

// Names each CrossBackend case by its geometry and mix.
void PrintTo(const CrossCase& c, std::ostream* os) {
    *os << "shards=" << c.table.shards
        << " locks=" << c.table.locks_per_shard << " r" << c.reader_pct
        << (c.table.homed ? "" : " unhomed");
}

namespace {

DistSimConfig small_cfg(bool homed, std::uint32_t reader_pct) {
    DistSimConfig c;
    c.table.shards = 2;
    c.table.locks_per_shard = 2;
    c.table.sessions = 6;
    c.table.homed = homed;
    c.ops_per_session = 8;
    c.reader_pct = reader_pct;
    c.writer_cs_steps = 5;
    c.seed = 7;
    return c;
}

TEST(DistSimTable, HomedRunsToCompletionWithoutViolations) {
    for (const std::uint32_t pct : {0u, 50u, 100u}) {
        const DistSimResult r = run_dist_sim(small_cfg(true, pct));
        EXPECT_TRUE(r.finished) << "reader_pct=" << pct;
        EXPECT_EQ(r.witness_violations, 0u) << "reader_pct=" << pct;
        EXPECT_EQ(r.total_ops, 6u * 8u) << "reader_pct=" << pct;
    }
}

TEST(DistSimTable, UnhomedRunsToCompletionWithoutViolations) {
    for (const std::uint32_t pct : {0u, 50u, 100u}) {
        const DistSimResult r = run_dist_sim(small_cfg(false, pct));
        EXPECT_TRUE(r.finished) << "reader_pct=" << pct;
        EXPECT_EQ(r.witness_violations, 0u) << "reader_pct=" << pct;
        EXPECT_EQ(r.total_ops, 6u * 8u) << "reader_pct=" << pct;
    }
}

TEST(DistSimTable, SingleSessionFastPathIsCheap) {
    // Uncontended writer passages: a fixed small number of verbs, all on
    // the shard segment (every one a network RMR), none wasted waiting.
    DistSimConfig c;
    c.table = {1, 1, 1, true};
    c.ops_per_session = 10;
    c.reader_pct = 0;
    c.writer_cs_steps = 1;
    const DistSimResult r = run_dist_sim(c);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.witness_violations, 0u);
    // Acquire (FAA ticket, read grant, write wflag, read rcount, CAS
    // witness) + release (CAS witness, write wflag, write grant, read
    // slot, read rwaiters) = 10 network verbs per op.
    EXPECT_EQ(r.network_rmrs, 10u * 10u);
}

TEST(DistSimTable, UnhomedPaysMoreThanHomedUnderContention) {
    DistSimConfig homed = small_cfg(true, 0);
    DistSimConfig unhomed = small_cfg(false, 0);
    homed.table.shards = unhomed.table.shards = 1;
    homed.table.locks_per_shard = unhomed.table.locks_per_shard = 1;
    homed.writer_cs_steps = unhomed.writer_cs_steps = 12;
    const DistSimResult rh = run_dist_sim(homed);
    const DistSimResult ru = run_dist_sim(unhomed);
    ASSERT_TRUE(rh.finished);
    ASSERT_TRUE(ru.finished);
    EXPECT_GT(ru.network_rmrs_per_op, rh.network_rmrs_per_op);
}

TEST(DistSimTable, GridIsBitIdenticalForAnyJobsValue) {
    std::vector<DistSimConfig> cfgs;
    for (const bool homed : {true, false}) {
        for (const std::uint32_t pct : {0u, 90u}) {
            cfgs.push_back(small_cfg(homed, pct));
        }
    }
    const auto a = run_dist_sim_grid(cfgs, 1);
    const auto b = run_dist_sim_grid(cfgs, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].steps, b[i].steps) << "cell " << i;
        EXPECT_EQ(a[i].total_ops, b[i].total_ops) << "cell " << i;
        EXPECT_EQ(a[i].read_ops, b[i].read_ops) << "cell " << i;
        EXPECT_EQ(a[i].network_rmrs, b[i].network_rmrs) << "cell " << i;
        EXPECT_EQ(a[i].session_rmrs, b[i].session_rmrs) << "cell " << i;
    }
}

class CrossBackend : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossBackend, NativeSessionPricesTheOpStreamLikeTheSim) {
    // One session, so both backends run the same step sequence: the sim
    // prices it with Memory's DSM ledgers, the native table with its
    // software segment rule over a plain word array. E17's native
    // network_rmrs_per_op rests on the two agreeing.
    const CrossCase& c = GetParam();
    ASSERT_EQ(c.table.sessions, 1u);
    DistSimConfig sc;
    sc.table = c.table;
    sc.ops_per_session = 200;
    sc.reader_pct = c.reader_pct;
    sc.seed = 11;
    const DistSimResult sim = run_dist_sim(sc);
    ASSERT_TRUE(sim.finished);
    EXPECT_EQ(sim.witness_violations, 0u);

    const TableLayout lay(c.table);
    const auto words =
        std::make_unique<std::atomic<Word>[]>(lay.total_words());
    const auto spots = std::make_unique<native::ParkingSpot[]>(1);
    NativeTable table(words.get(), c.table, spots.get());
    LoadConfig lc;
    lc.ops_per_session = sc.ops_per_session;
    lc.reader_pct = sc.reader_pct;
    lc.seed = sc.seed;
    lc.jobs = 1;
    const LoadResult native = run_load(table, lc);

    EXPECT_EQ(native.merged.violations, 0u);
    EXPECT_EQ(native.witness_violations, 0u);
    EXPECT_EQ(native.merged.read_ops, sim.read_ops);
    EXPECT_EQ(native.merged.write_ops, sim.write_ops);
    EXPECT_EQ(native.merged.network_rmrs, sim.network_rmrs);
    EXPECT_GT(sim.network_rmrs, 0u);
}

// Homed and unhomed, reader mixes 0/50/90/100%, four shard x lock
// geometries.
INSTANTIATE_TEST_SUITE_P(
    Geometry, CrossBackend,
    ::testing::Values(CrossCase{{1, 1, 1, true}, 0},
                      CrossCase{{1, 1, 1, false}, 100},
                      CrossCase{{2, 3, 1, true}, 50},
                      CrossCase{{2, 3, 1, false}, 90},
                      CrossCase{{4, 2, 1, true}, 90},
                      CrossCase{{4, 2, 1, false}, 50},
                      CrossCase{{3, 1, 1, true}, 100},
                      CrossCase{{3, 1, 1, false}, 0}));

TEST(DistOpStream, SameSeedSameStream) {
    OpStream a(42, 3);
    OpStream b(42, 3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(DistOpStream, SessionsAreDecorrelated) {
    // Adjacent sessions (and adjacent seeds) must not produce overlapping
    // streams -- the double splitmix mix guarantees distinct prefixes.
    std::set<std::uint64_t> draws;
    constexpr int kPerStream = 64;
    for (std::uint32_t s = 0; s < 16; ++s) {
        OpStream st(1, s);
        for (int i = 0; i < kPerStream; ++i) {
            draws.insert(st.next());
        }
    }
    EXPECT_EQ(draws.size(), 16u * kPerStream);
}

TEST(DistOpStream, ReaderPctBoundaries) {
    OpStream st(9, 0);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(st.next_op(4, 0).reader);
        EXPECT_TRUE(st.next_op(4, 100).reader);
    }
    OpStream st2(9, 1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_LT(st2.next_op(3, 50).lock_index, 3u);
    }
}

}  // namespace
}  // namespace rwr::dist
