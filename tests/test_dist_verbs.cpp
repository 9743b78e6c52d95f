// The verb/RMR equivalence differential (ISSUE 9 satellite): every
// sim-backend verb must produce exactly the per-ProcId Memory ledger delta
// the DSM remote-iff-not-home rule predicts -- SimVerbMemory's
// predicted_network_rmr states the rule independently, and these tests
// grind apply() against it across all (session, segment, verb-code)
// combinations, checking the returned rmr bit, the issuer's ledger delta,
// and everyone else's non-delta.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <vector>

#include "dist/layout.hpp"
#include "dist/sim_table.hpp"
#include "dist/verbs.hpp"
#include "rmr/memory.hpp"

namespace rwr::dist {
namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kSessions = 3;
constexpr ProcId kServerBase = 100;

SimVerbMemory make_svm(Memory& mem) {
    const std::vector<std::uint32_t> seg_words(kShards + kSessions, 4);
    return SimVerbMemory(mem, kShards, kSessions, seg_words, kServerBase);
}

TEST(DistVerbs, HomingConventionMatchesOwnerBase) {
    Memory mem(Protocol::Dsm);
    const SimVerbMemory svm = make_svm(mem);
    // Shard segments are homed at virtual server pids above the client
    // range; client segment shards+s is homed at ProcId s.
    EXPECT_EQ(svm.home_of(0), kServerBase + 0);
    EXPECT_EQ(svm.home_of(1), kServerBase + 1);
    EXPECT_EQ(svm.home_of(kShards + 0), 0);
    EXPECT_EQ(svm.home_of(kShards + 2), 2);
}

TEST(DistVerbs, EveryVerbMatchesThePredictedLedgerDelta) {
    Memory mem(Protocol::Dsm);
    SimVerbMemory svm = make_svm(mem);
    const std::uint32_t num_segs = kShards + kSessions;
    for (ProcId p = 0; p < kSessions; ++p) {
        for (std::uint32_t seg = 0; seg < num_segs; ++seg) {
            const GlobalAddr a{seg, 1};
            const Verb verbs[] = {Verb::read(a), Verb::write(a, 7),
                                  Verb::cas(a, 7, 9), Verb::faa(a, 2)};
            for (const Verb& v : verbs) {
                std::vector<std::uint64_t> before(kSessions);
                for (ProcId q = 0; q < kSessions; ++q) {
                    before[q] = mem.rmrs_by(q);
                }
                const bool predicted = svm.predicted_network_rmr(p, seg);
                const VerbResult r = svm.apply(p, v);
                EXPECT_EQ(r.network_rmr, predicted)
                    << "p=" << p << " seg=" << seg << " verb "
                    << to_string(v.code);
                EXPECT_EQ(mem.rmrs_by(p) - before[p],
                          predicted ? 1u : 0u)
                    << "issuer ledger delta, p=" << p << " seg=" << seg
                    << " verb " << to_string(v.code);
                for (ProcId q = 0; q < kSessions; ++q) {
                    if (q != p) {
                        EXPECT_EQ(mem.rmrs_by(q), before[q])
                            << "bystander " << q << " charged";
                    }
                }
            }
            // Reset the word so the CAS in the next round still exercises
            // both outcomes deterministically.
            svm.apply(p, Verb::write(a, 0));
        }
    }
}

TEST(DistVerbs, VerbValueSemantics) {
    Memory mem(Protocol::Dsm);
    SimVerbMemory svm = make_svm(mem);
    const GlobalAddr a{0, 0};
    EXPECT_EQ(svm.apply(0, Verb::read(a)).value, 0u);
    svm.apply(0, Verb::write(a, 41));
    EXPECT_EQ(svm.apply(0, Verb::read(a)).value, 41u);
    // FAA returns the pre-add value.
    EXPECT_EQ(svm.apply(1, Verb::faa(a, 1)).value, 41u);
    EXPECT_EQ(svm.apply(1, Verb::read(a)).value, 42u);
    // CAS returns the pre-op value whether it hits or misses.
    EXPECT_EQ(svm.apply(2, Verb::cas(a, 42, 50)).value, 42u);
    EXPECT_EQ(svm.apply(2, Verb::cas(a, 42, 60)).value, 50u);
    EXPECT_EQ(svm.apply(0, Verb::read(a)).value, 50u);
}

TEST(DistVerbs, SessionLedgersSumToTotalWhenOnlySessionsStep) {
    // The virtual shard homes never issue verbs, so the sum of session
    // ledgers must equal Memory's global count -- the invariant
    // run_dist_sim relies on when it reports network_rmrs.
    Memory mem(Protocol::Dsm);
    SimVerbMemory svm = make_svm(mem);
    std::uint64_t expect_total = 0;
    for (ProcId p = 0; p < kSessions; ++p) {
        for (std::uint32_t seg = 0; seg < kShards + kSessions; ++seg) {
            svm.apply(p, Verb::faa({seg, 0}, 1));
            if (svm.predicted_network_rmr(p, seg)) {
                ++expect_total;
            }
        }
    }
    std::uint64_t sum = 0;
    for (ProcId p = 0; p < kSessions; ++p) {
        sum += mem.rmrs_by(p);
    }
    EXPECT_EQ(sum, expect_total);
}

}  // namespace

// Names each TableLayoutShapes case by its geometry.
void PrintTo(const TableConfig& c, std::ostream* os) {
    *os << "shards=" << c.shards << " locks=" << c.locks_per_shard
        << " sessions=" << c.sessions << (c.homed ? "" : " unhomed");
}

namespace {

class TableLayoutShapes : public ::testing::TestWithParam<TableConfig> {};

TEST_P(TableLayoutShapes, AddressesAreDisjointAndCovering) {
    // flat_index must be a bijection onto [0, total_words): every lock
    // field, wslot, bitmap word and gate lands on its own word.
    const TableConfig cfg = GetParam();
    const TableLayout lay(cfg);
    std::vector<int> hits(lay.total_words(), 0);
    auto touch = [&](GlobalAddr a) { ++hits[lay.flat_index(a)]; };
    for (std::uint32_t lock = 0; lock < cfg.num_locks(); ++lock) {
        for (const auto f :
             {LockField::WTicket, LockField::WGrant, LockField::WFlag,
              LockField::RCount, LockField::RWaiters, LockField::WWitness}) {
            touch(lay.lock_word(lock, f));
        }
        for (std::uint64_t t = 0; t < cfg.sessions; ++t) {
            touch(lay.wslot_word(lock, t));
        }
        for (std::uint32_t w = 0; w < lay.bitmap_words(); ++w) {
            touch(lay.rbitmap_word(lock, w));
        }
    }
    for (std::uint32_t s = 0; s < cfg.sessions; ++s) {
        touch(lay.gate_word(s));
    }
    std::size_t used = 0;
    for (const int h : hits) {
        EXPECT_LE(h, 1) << "two addresses collide";
        used += h > 0 ? 1 : 0;
    }
    // Everything except client-segment padding is covered.
    EXPECT_EQ(used, lay.total_words() -
                        std::uint64_t{cfg.sessions} * (kClientSegWords - 1));
}

// A mixed geometry, the smallest one TableLayout accepts, and session
// counts on each side of a reader-bitmap word boundary.
INSTANTIATE_TEST_SUITE_P(
    Geometry, TableLayoutShapes,
    ::testing::Values(TableConfig{2, 3, 5}, TableConfig{1, 1, 1},
                      TableConfig{1, 1, 63}, TableConfig{1, 1, 64},
                      TableConfig{1, 1, 65}, TableConfig{3, 2, 64},
                      TableConfig{4, 1, 129}, TableConfig{8, 4, 7},
                      TableConfig{2, 5, 200, false}));

TEST(DistVerbs, TableLayoutRejectsEmptyGeometry) {
    // A Release build drops asserts, so an empty geometry must throw
    // rather than divide by zero in shard_of() or wslot_word().
    EXPECT_THROW(TableLayout(TableConfig{0, 1, 1}), std::invalid_argument);
    EXPECT_THROW(TableLayout(TableConfig{1, 0, 1}), std::invalid_argument);
    EXPECT_THROW(TableLayout(TableConfig{1, 1, 0}), std::invalid_argument);
    // encode_wslot packs session + 1 into 20 bits.
    EXPECT_THROW(TableLayout(TableConfig{1, 1, (1u << 20) - 1}),
                 std::invalid_argument);
    EXPECT_NO_THROW(TableLayout(TableConfig{1, 1, kMaxSessions}));
}

TEST(DistVerbs, WslotEncodingRoundTrips) {
    const Word v = TableLayout::encode_wslot(12345, 17);
    EXPECT_TRUE(TableLayout::wslot_matches(v, 12345));
    EXPECT_FALSE(TableLayout::wslot_matches(v, 12346));
    EXPECT_FALSE(TableLayout::wslot_matches(0, 0));  // Empty never matches.
    EXPECT_EQ(TableLayout::wslot_session(v), 17u);
    // The last session of the largest table TableLayout accepts still fits
    // the 20-bit field.
    const Word last = TableLayout::encode_wslot(7, kMaxSessions - 1);
    EXPECT_TRUE(TableLayout::wslot_matches(last, 7));
    EXPECT_EQ(TableLayout::wslot_session(last), kMaxSessions - 1);
}

}  // namespace
}  // namespace rwr::dist
