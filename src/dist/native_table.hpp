// Native backend of the sharded lock table: table_protocol.inc compiled
// as plain functions, every verb a real seq_cst std::atomic operation on a
// mapped word array -- the shared memory segment lock_serviced serves.
// Clients run the data path entirely with one-sided verbs on the mapping
// (the daemon's CPU is not involved in acquire/release, only in setup),
// which is the point of the RDMA analogy. No operation allocates a
// coroutine frame.
//
// An operation resolves each word it touches once, before its first verb
// (table_protocol.inc's resolve hooks), to a Ref: the word's atomic plus
// whether a verb on it is a network RMR. A lock's header words come from a
// per-lock pointer table built in the constructor, so the data path does
// no division by the shard count and no flat-index arithmetic between
// verbs -- every seq_cst atomic is a compiler barrier, after which such
// arithmetic would be redone from reloaded members.
//
// Network-RMR accounting is the verb layer's segment rule applied in
// software: a verb on any segment other than the session's own client
// segment increments the session's network_rmrs counter. Homed waiting
// parks on a per-session native::ParkingSpot (client-local memory, NOT in
// the shared segment) after the releaser bumps the session's shm gate
// word -- state update precedes wake_all(), the park.hpp contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "dist/layout.hpp"
#include "dist/verbs.hpp"
#include "native/park.hpp"
#include "native/spin.hpp"

namespace rwr::dist {

/// Log2-bucketed acquire-latency histogram plus op/RMR counters for one
/// session (merged across sessions for the bench rows).
inline constexpr unsigned kLatBuckets = 64;

struct SessionStats {
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t network_rmrs = 0;
    std::uint64_t violations = 0;
    std::array<std::uint64_t, kLatBuckets> acquire_ns_log2{};

    void record_acquire_ns(std::uint64_t ns) {
        unsigned b = 0;
        while ((std::uint64_t{1} << (b + 1)) <= ns && b + 1 < kLatBuckets) {
            ++b;
        }
        ++acquire_ns_log2[b];
    }
    void merge(const SessionStats& o) {
        read_ops += o.read_ops;
        write_ops += o.write_ops;
        network_rmrs += o.network_rmrs;
        violations += o.violations;
        for (unsigned b = 0; b < kLatBuckets; ++b) {
            acquire_ns_log2[b] += o.acquire_ns_log2[b];
        }
    }
    [[nodiscard]] std::uint64_t total_ops() const {
        return read_ops + write_ops;
    }
    /// Quantile q in [0,1] of the acquire latency, in microseconds (bucket
    /// upper bound: a factor-2 estimate, fine for p50/p99 bench rows).
    [[nodiscard]] double percentile_us(double q) const {
        std::uint64_t total = 0;
        for (const auto c : acquire_ns_log2) {
            total += c;
        }
        if (total == 0) {
            return 0.0;
        }
        const auto want = static_cast<std::uint64_t>(
            q * static_cast<double>(total - 1));
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < kLatBuckets; ++b) {
            seen += acquire_ns_log2[b];
            if (seen > want) {
                return static_cast<double>(std::uint64_t{1} << (b + 1)) /
                       1000.0;
            }
        }
        return 0.0;
    }
};

class NativeTable {
   public:
    /// `words` is the mapped array of layout.total_words() words (flat
    /// segment order); `spots` is the client-local wait registry, one spot
    /// per session, alive for the table's lifetime.
    NativeTable(std::atomic<Word>* words, const TableConfig& cfg,
                native::ParkingSpot* spots)
        : lay_(cfg), words_(words), spots_(spots) {
        locks_.reserve(cfg.num_locks());
        for (std::uint32_t l = 0; l < cfg.num_locks(); ++l) {
            const GlobalAddr a = lay_.lock_word(l, LockField::WTicket);
            locks_.push_back(&words_[lay_.flat_index(a)]);
        }
    }

    [[nodiscard]] const TableLayout& layout() const { return lay_; }

    /// Per-session handle; `id` indexes the spot registry and the session's
    /// own client segment. Stats accumulate here, written by the session's
    /// one thread on every verb; the alignment keeps data that other
    /// threads write (a neighbouring session, or the tail of whatever
    /// object sits before this one) off those cache lines.
    struct alignas(64) Session {
        std::uint32_t id = 0;
        SessionStats stats;
    };

    /// Acquire returns the writer's ticket; release takes it back (the
    /// caller threads it through, so the table keeps no client state).
    std::uint64_t writer_acquire(Session& s, std::uint32_t lock);
    void writer_release(Session& s, std::uint32_t lock, std::uint64_t ticket);
    void reader_acquire(Session& s, std::uint32_t lock);
    void reader_release(Session& s, std::uint32_t lock);

    /// Sum of the per-shard witness words' violation counts observed by
    /// this client (failed witness CAS / nonzero witness read).
    [[nodiscard]] std::uint64_t witness_violations() const {
        return violations_.load();
    }

   private:
    // The protocol's executor (table_protocol.inc): the resolve hooks,
    // then each verb one seq_cst atomic on a Ref plus the segment
    // accounting rule.
    template <class T>
    using Task = T;
    using Backoff = native::Backoff;

    /// A resolved word: the atomic, and whether a verb on it leaves the
    /// session's own segment (a network RMR).
    struct Ref {
        std::atomic<Word>* w;
        bool remote;
    };
    /// Header word `f` of `lock`, from the per-lock table. Always remote:
    /// a shard segment is never a session's own.
    [[nodiscard]] Ref lock_ref(std::uint32_t lock, LockField f) const {
        return {locks_[lock] + static_cast<std::uint32_t>(f), true};
    }
    /// Any word by address (gates, writer slots, reader bitmaps), as
    /// session `s` sees it: remote unless it is in s's own segment.
    [[nodiscard]] Ref word(const Session& s, GlobalAddr a) const {
        return {&words_[lay_.flat_index(a)],
                a.seg != lay_.config().shards + s.id};
    }
    static void count(Session& s, Ref r) {
        if (r.remote) {
            ++s.stats.network_rmrs;
        }
    }
    Word read(Session& s, Ref r) {
        count(s, r);
        return r.w->load();
    }
    void write(Session& s, Ref r, Word v) {
        count(s, r);
        r.w->store(v);
    }
    /// Returns the word's previous value (CAS succeeded iff == expected).
    Word cas(Session& s, Ref r, Word expected, Word desired) {
        count(s, r);
        r.w->compare_exchange_strong(expected, desired);
        return expected;
    }
    Word faa(Session& s, Ref r, Word delta) {
        count(s, r);
        return r.w->fetch_add(delta);
    }
    /// Bump `session`'s gate, then wake it.
    void bump(Session& s, std::uint32_t session) {
        faa(s, word(s, lay_.gate_word(session)), 1);
        spots_[session].wake_all(nullptr);
    }
    /// Homed terminal wait: park on the session's spot until its `gate`
    /// moves past `epoch` (gate reads are local: no RMR counting).
    void wait_gate(const Session& s, Ref gate, Word epoch) {
        native::Deadline dl = native::Deadline::infinite();
        native::Backoff bo;
        native::wait_until(spots_[s.id], dl, nullptr, bo,
                           [&] { return gate.w->load() != epoch; });
    }
    void violation(Session& s) {
        ++s.stats.violations;
        violations_.fetch_add(1);
    }

    TableLayout lay_;
    std::atomic<Word>* words_;
    /// Each lock's first header word (8 bytes of client memory per lock):
    /// resolving a header word is one load, with no division by shards.
    std::vector<std::atomic<Word>*> locks_;
    native::ParkingSpot* spots_;
    std::atomic<std::uint64_t> violations_{0};
};

}  // namespace rwr::dist
