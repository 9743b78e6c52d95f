// Sim-backend lock table: protocol correctness (witnessed mutual
// exclusion, liveness on both homed and unhomed variants), the OpStream
// determinism discipline (grid rows bit-identical for any --jobs, streams
// decorrelated across sessions), the homed/unhomed RMR ordering the E17
// assertions build on, and the cross-backend check that the native table
// prices a replayed op stream exactly as the simulator's ledgers do.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/load.hpp"
#include "dist/native_table.hpp"
#include "dist/sim_table.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

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

/// Session `s` runs one acquire/release pair on each lock of `t` in turn
/// and appends the network RMRs each pair cost to `cost`.
sim::SimTask<void> one_pair_per_lock(DistTableSim& t, DistTableSim::Session& s,
                                     std::uint32_t locks, bool reader,
                                     const Memory& mem,
                                     std::vector<std::uint64_t>& cost) {
    for (std::uint32_t l = 0; l < locks; ++l) {
        const std::uint64_t before = mem.rmrs_by(s.p.id());
        if (reader) {
            co_await t.reader_acquire(s, l);
            co_await t.reader_release(s, l);
        } else {
            const std::uint64_t ticket = co_await t.writer_acquire(s, l);
            co_await t.writer_release(s, l, ticket);
        }
        cost.push_back(mem.rmrs_by(s.p.id()) - before);
    }
}

TEST(DistSimTable, SingleSessionFastPathIsCheap) {
    // A solo session's verbs, pinned per op on both backends, over a 2 x 3
    // table: locks on both shards, at slot 0 and above. Every verb of a
    // solo op is on a shard word (a network RMR) and none waits.
    //   reader acquire: read WFlag, FAA RCount, read WFlag, read WWitness;
    //   reader release: read WWitness, FAA RCount, and homed (the last
    //     reader out) read WFlag for a writer to wake;
    //   writer acquire: FAA WTicket, read WGrant, write WFlag, read RCount,
    //     CAS WWitness;
    //   writer release: CAS WWitness, write WFlag, write WGrant, and homed
    //     read the next ticket's WSlot and RWaiters.
    struct Row {
        bool homed;
        bool reader;
        std::uint64_t sim_pair;  ///< Per acquire + release pair.
        std::uint64_t native_acquire;
        std::uint64_t native_release;
    };
    constexpr Row kRows[] = {
        {false, true, 6, 4, 2},
        {false, false, 8, 5, 3},
        {true, true, 7, 4, 3},
        {true, false, 10, 5, 5},
    };
    for (const Row& row : kRows) {
        SCOPED_TRACE(std::string(row.homed ? "homed " : "unhomed ") +
                     (row.reader ? "reader" : "writer"));
        // Three sessions, and the ops run as the last one, so a witness
        // value or a gate at the wrong session shows.
        const TableConfig cfg{2, 3, 3, row.homed};
        const std::uint32_t id = cfg.sessions - 1;

        sim::System sys(Protocol::Dsm);
        DistTableSim sim_table(sys.memory(), cfg, cfg.sessions);
        for (std::uint32_t p = 0; p < cfg.sessions; ++p) {
            (void)sys.add_process(sim::Role::Writer);
        }
        DistTableSim::Session ss{sys.process(id), id};
        std::vector<std::uint64_t> cost;
        ss.p.set_task(one_pair_per_lock(sim_table, ss, cfg.num_locks(),
                                        row.reader, sys.memory(), cost));
        (void)sim::run_solo(sys, id, 10'000);
        ASSERT_TRUE(ss.p.finished());
        EXPECT_EQ(sim_table.witness_violations(), 0u);
        EXPECT_EQ(cost, std::vector<std::uint64_t>(cfg.num_locks(),
                                                   row.sim_pair));

        const TableLayout lay(cfg);
        const auto words =
            std::make_unique<std::atomic<Word>[]>(lay.total_words());
        const auto spots =
            std::make_unique<native::ParkingSpot[]>(cfg.sessions);
        NativeTable table(words.get(), cfg, spots.get());
        NativeTable::Session ns;
        ns.id = id;
        const auto word = [&](std::uint32_t l, LockField f) {
            return words[lay.flat_index(lay.lock_word(l, f))].load();
        };
        for (std::uint32_t l = 0; l < cfg.num_locks(); ++l) {
            SCOPED_TRACE("lock " + std::to_string(l));
            const std::uint64_t n0 = ns.stats.network_rmrs;
            std::uint64_t ticket = 0;
            if (row.reader) {
                table.reader_acquire(ns, l);
            } else {
                ticket = table.writer_acquire(ns, l);
                EXPECT_EQ(word(l, LockField::WTicket), 1u);
                EXPECT_EQ(word(l, LockField::WWitness), ns.id + 1);
            }
            const std::uint64_t n1 = ns.stats.network_rmrs;
            if (row.reader) {
                table.reader_release(ns, l);
            } else {
                table.writer_release(ns, l, ticket);
            }
            EXPECT_EQ(n1 - n0, row.native_acquire);
            EXPECT_EQ(ns.stats.network_rmrs - n1, row.native_release);
        }
        EXPECT_EQ(table.witness_violations(), 0u);
    }
}

/// Runs the four ops of `t` as each session of `sessions` on the lock
/// beside it, counting in `thrown` each op that throws std::out_of_range.
sim::SimTask<void> four_ops_each(DistTableSim& t,
                                 std::vector<DistTableSim::Session>& sessions,
                                 const std::vector<std::uint32_t>& locks,
                                 int& thrown) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        DistTableSim::Session& s = sessions[i];
        const std::uint32_t lock = locks[i];
        try {
            co_await t.reader_acquire(s, lock);
        } catch (const std::out_of_range&) {
            ++thrown;
        }
        try {
            co_await t.reader_release(s, lock);
        } catch (const std::out_of_range&) {
            ++thrown;
        }
        try {
            const std::uint64_t ticket = co_await t.writer_acquire(s, lock);
            co_await t.writer_release(s, lock, ticket);
        } catch (const std::out_of_range&) {
            ++thrown;
        }
        try {
            co_await t.writer_release(s, lock, 0);
        } catch (const std::out_of_range&) {
            ++thrown;
        }
    }
}

TEST(DistTable, OutOfRangeIdsThrowBeforeAnyVerb) {
    // A lock past the table or a session past its gates would address the
    // words of another lock or session: lock 4 of a 2 x 2 table lands on
    // lock 1's words, lock 8 on session 0's segment. Each op must throw
    // before its first verb and leave every word as it was.
    const TableConfig cfg{2, 2, 1, true};
    struct Ids {
        std::uint32_t lock;
        std::uint32_t session;
    };
    constexpr Ids kBad[] = {{4, 0}, {8, 0}, {0, 1}};

    const TableLayout lay(cfg);
    const auto words =
        std::make_unique<std::atomic<Word>[]>(lay.total_words());
    const auto spots = std::make_unique<native::ParkingSpot[]>(1);
    NativeTable table(words.get(), cfg, spots.get());
    sim::System sys(Protocol::Dsm);
    DistTableSim sim_table(sys.memory(), cfg, cfg.sessions);
    sim::Process& p = sys.add_process(sim::Role::Writer);
    std::vector<DistTableSim::Session> sim_sessions;
    std::vector<std::uint32_t> sim_locks;
    for (const Ids& ids : kBad) {
        sim_sessions.push_back({p, ids.session});
        sim_locks.push_back(ids.lock);
    }

    for (const Ids& ids : kBad) {
        SCOPED_TRACE("lock " + std::to_string(ids.lock) + ", session " +
                     std::to_string(ids.session));
        // In this order the ops would also complete, not hang, on a
        // table that ran them.
        NativeTable::Session s;
        s.id = ids.session;
        EXPECT_THROW(table.reader_acquire(s, ids.lock), std::out_of_range);
        EXPECT_THROW(table.reader_release(s, ids.lock), std::out_of_range);
        EXPECT_THROW((void)table.writer_acquire(s, ids.lock),
                     std::out_of_range);
        EXPECT_THROW(table.writer_release(s, ids.lock, 0), std::out_of_range);
        EXPECT_EQ(s.stats.network_rmrs, 0u);
    }
    int thrown = 0;
    p.set_task(four_ops_each(sim_table, sim_sessions, sim_locks, thrown));
    EXPECT_EQ(sim::run_solo(sys, p.id(), 10'000), 0u);
    EXPECT_TRUE(p.finished());
    EXPECT_EQ(thrown, 4 * static_cast<int>(std::size(kBad)));

    for (std::uint64_t w = 0; w < lay.total_words(); ++w) {
        EXPECT_EQ(words[w].load(), 0u) << "native word " << w;
    }
    const Memory& mem = sys.memory();
    for (std::uint32_t v = 0; v < mem.num_variables(); ++v) {
        EXPECT_EQ(mem.peek(VarId{v}), 0u) << "sim word " << v;
    }
    EXPECT_EQ(table.witness_violations(), 0u);
    EXPECT_EQ(sim_table.witness_violations(), 0u);
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
