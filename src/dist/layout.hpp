// Shared word layout of the sharded lock table: where each word lives and
// what its bits mean, for BOTH backends (sim coroutines and the native
// loopback client). The steps that use the words are written once too, in
// table_protocol.inc, so the backends cannot drift apart on either.
//
// The table holds `shards * locks_per_shard` reader-writer lock entries.
// Lock l lives entirely on shard l % shards (each A_f-style lock group
// hashes to a shard with a home node); its words, per entry:
//
//   WTicket   writer ticket dispenser (FAA)
//   WGrant    writer now-serving
//   WFlag     session+1 of the granted writer (drain + CS), 0 = none
//   RCount    active readers (transiently inflated by backing-out readers)
//   RWaiters  count of readers registered in the wait bitmap
//   WWitness  ownership witness: CASed 0 -> session+1 by the writer after
//             the reader drain, CASed back on release; readers assert it
//             is 0 while they hold. Any failed CAS / nonzero read is a
//             mutual-exclusion violation -- the per-shard witness words
//             bench_dist (E17) exit-code-asserts on.
//   WSlot[sessions]      ticket -> waiting session registry, indexed
//             ticket % sessions (collision-free: a session holds at most
//             one outstanding ticket, so at most `sessions` tickets are
//             ever outstanding at once)
//   RBitmap[ceil(sessions/64)]  waiting-reader bitmap, one bit per session
//
// Each client session additionally owns one small segment holding its spin
// GATE word (an epoch counter, bumped with FAA by whoever grants to the
// session). In the HOMED layout waiters spin on their own gate -- local
// under the verb accounting rule -- and releasers pay O(1) network RMRs to
// bump the gates of the sessions they wake. The UNHOMED ablation never
// touches gates or registries: waiters re-poll the shard words (WGrant /
// RCount / WFlag) remotely, which converts waiting time into network RMRs
// exactly like the unhomed-spin locks of E15.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "dist/verbs.hpp"

namespace rwr::dist {

struct TableConfig {
    std::uint32_t shards = 1;
    std::uint32_t locks_per_shard = 1;
    std::uint32_t sessions = 1;
    /// Homed gate protocol (false = unhomed remote-spin ablation).
    bool homed = true;

    [[nodiscard]] std::uint32_t num_locks() const {
        return shards * locks_per_shard;
    }
};

/// Field offsets within one lock entry (word units).
enum class LockField : std::uint32_t {
    WTicket = 0,
    WGrant = 1,
    WFlag = 2,
    RCount = 3,
    RWaiters = 4,
    WWitness = 5,
};
inline constexpr std::uint32_t kLockHeaderWords = 6;

/// Client segments are padded to a cache line so native sessions' gates
/// never share one (the gate is the only word a remote releaser writes).
inline constexpr std::uint32_t kClientSegWords = 8;
inline constexpr std::uint32_t kGateOffset = 0;

/// Most sessions one table serves: encode_wslot packs session + 1 into 20
/// bits.
inline constexpr std::uint32_t kMaxSessions = (1u << 20) - 2;

class TableLayout {
   public:
    /// Throws std::invalid_argument on an empty geometry (no shards, locks
    /// or sessions) or on more sessions than kMaxSessions -- also when the
    /// geometry arrives over the wire in a HELLO reply.
    explicit TableLayout(const TableConfig& cfg) : cfg_(cfg) {
        if (cfg.shards == 0 || cfg.locks_per_shard == 0 ||
            cfg.sessions == 0) {
            throw std::invalid_argument(
                "TableLayout: shards, locks and sessions must be >= 1");
        }
        if (cfg.sessions > kMaxSessions) {
            throw std::invalid_argument(
                "TableLayout: at most " + std::to_string(kMaxSessions) +
                " sessions");
        }
        bitmap_words_ = (cfg.sessions + 63) / 64;
        lock_stride_ = kLockHeaderWords + cfg.sessions + bitmap_words_;
        shard_words_ = cfg.locks_per_shard * lock_stride_;
    }

    [[nodiscard]] const TableConfig& config() const { return cfg_; }
    [[nodiscard]] std::uint32_t num_segments() const {
        return cfg_.shards + cfg_.sessions;
    }
    [[nodiscard]] std::uint32_t bitmap_words() const { return bitmap_words_; }
    /// Words in segment `seg` (shards first, then client segments).
    [[nodiscard]] std::uint32_t seg_words(std::uint32_t seg) const {
        return seg < cfg_.shards ? shard_words_ : kClientSegWords;
    }
    /// Total words across all segments: the native shm segment size.
    [[nodiscard]] std::uint64_t total_words() const {
        return std::uint64_t{cfg_.shards} * shard_words_ +
               std::uint64_t{cfg_.sessions} * kClientSegWords;
    }

    /// Throws std::out_of_range unless `lock` and `session` name a lock
    /// and a session of this table. Every table operation checks its ids
    /// before its first verb: a bad one would address the words of
    /// another lock or session, or none at all.
    void check_ids(std::uint32_t lock, std::uint32_t session) const {
        if (lock >= cfg_.num_locks() || session >= cfg_.sessions)
            [[unlikely]] {
            throw_bad_ids(lock, session);
        }
    }

    // ---- Lock placement --------------------------------------------------

    /// Lock l's home shard: the group-to-shard hash.
    [[nodiscard]] std::uint32_t shard_of(std::uint32_t lock) const {
        assert(lock < cfg_.num_locks());
        return lock % cfg_.shards;
    }
    /// Index of lock l among the locks of its shard.
    [[nodiscard]] std::uint32_t slot_in_shard(std::uint32_t lock) const {
        return lock / cfg_.shards;
    }

    [[nodiscard]] GlobalAddr lock_word(std::uint32_t lock,
                                       LockField f) const {
        return {shard_of(lock), slot_in_shard(lock) * lock_stride_ +
                                    static_cast<std::uint32_t>(f)};
    }
    /// Writer registration slot for `ticket` on `lock`.
    [[nodiscard]] GlobalAddr wslot_word(std::uint32_t lock,
                                        std::uint64_t ticket) const {
        return {shard_of(lock),
                slot_in_shard(lock) * lock_stride_ + kLockHeaderWords +
                    static_cast<std::uint32_t>(ticket % cfg_.sessions)};
    }
    /// Waiting-reader bitmap word covering `session` on `lock`.
    [[nodiscard]] GlobalAddr rbitmap_word(std::uint32_t lock,
                                          std::uint32_t word) const {
        assert(word < bitmap_words_);
        return {shard_of(lock), slot_in_shard(lock) * lock_stride_ +
                                    kLockHeaderWords + cfg_.sessions + word};
    }
    /// Session s's spin gate (in s's own segment).
    [[nodiscard]] GlobalAddr gate_word(std::uint32_t session) const {
        assert(session < cfg_.sessions);
        return {cfg_.shards + session, kGateOffset};
    }

    /// Flat word index of an address: the native shm layout (segments
    /// concatenated in segment order).
    [[nodiscard]] std::uint64_t flat_index(GlobalAddr a) const {
        assert(a.off < seg_words(a.seg));
        if (a.seg < cfg_.shards) {
            return std::uint64_t{a.seg} * shard_words_ + a.off;
        }
        return std::uint64_t{cfg_.shards} * shard_words_ +
               std::uint64_t{a.seg - cfg_.shards} * kClientSegWords + a.off;
    }

    // ---- Word encodings --------------------------------------------------

    /// WSlot value: ticket and session packed so a releaser can verify the
    /// registration belongs to the ticket it is granting (stale slots from
    /// long-gone tickets then never misfire). 0 = empty.
    [[nodiscard]] static Word encode_wslot(std::uint64_t ticket,
                                           std::uint32_t session) {
        assert(session < (1u << 20) - 1);
        return (ticket << 20) | (session + 1);
    }
    [[nodiscard]] static bool wslot_matches(Word v, std::uint64_t ticket) {
        return v != 0 && (v >> 20) == ticket;
    }
    [[nodiscard]] static std::uint32_t wslot_session(Word v) {
        return static_cast<std::uint32_t>(v & 0xFFFFF) - 1;
    }

    [[nodiscard]] std::uint32_t rbit_word_of(std::uint32_t session) const {
        return session / 64;
    }
    [[nodiscard]] static Word rbit_mask(std::uint32_t session) {
        return Word{1} << (session % 64);
    }

   private:
    [[noreturn, gnu::cold, gnu::noinline]] void throw_bad_ids(
        std::uint32_t lock, std::uint32_t session) const {
        throw std::out_of_range(
            "TableLayout: lock " + std::to_string(lock) + " of " +
            std::to_string(cfg_.num_locks()) + ", session " +
            std::to_string(session) + " of " +
            std::to_string(cfg_.sessions));
    }

    TableConfig cfg_;
    std::uint32_t bitmap_words_;
    std::uint32_t lock_stride_;
    std::uint32_t shard_words_;
};

}  // namespace rwr::dist
