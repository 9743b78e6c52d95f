// The table's word layout: flat_index is a bijection over every word a
// lock or session owns, a bad geometry throws instead of dividing by zero,
// and the writer-slot encoding round-trips. (That both backends price the
// verbs on these words alike is test_dist_table's cross-backend test.)
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <vector>

#include "dist/layout.hpp"

namespace rwr::dist {

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
