// One-sided verbs: the RDMA-style access layer of the distributed lock
// service (ROADMAP "Distributed lock-service tier").
//
// A verb is a single one-sided READ / WRITE / CAS / FAA on a 64-bit word
// addressed by (segment, offset). Segments model memory homes: table shards
// live in the service's memory (a client verb on them crosses the network),
// while each client session owns one segment of its own (its spin gates; a
// verb on your own segment is local). This is exactly the paper's DSM model
// with segments for processes -- one-sided verbs ARE remote memory
// references -- so the two backends share one accounting rule:
//
//   network RMR  <=>  the issuing session's segment != the word's segment
//
//   * Sim backend (dist/sim_table.hpp): every table word is a Memory
//     variable under Protocol::Dsm, homed at a ProcId standing for its
//     segment. Verbs become ordinary simulator steps, so the per-ProcId RMR
//     ledgers (Memory::rmrs_by) count network RMRs with no new machinery,
//     and the E15 separation results apply verbatim at the service level
//     (E17).
//   * Native loopback backend (dist/native_table.hpp): words live in a
//     shared-memory segment served by lock_serviced; verbs execute as real
//     std::atomic operations and the client library applies the same rule
//     in software to report network_rmrs_per_op.
//
// Both backends run one protocol text (dist/table_protocol.inc);
// test_dist_table replays one op stream through both and checks they
// report the same network RMRs.
#pragma once

#include <cstdint>

#include "rmr/types.hpp"
#include "sim/por.hpp"

namespace rwr::dist {

/// (segment, offset) address of one 64-bit word. Segments [0, shards) are
/// the table shards; segment shards + s is client session s's segment.
struct GlobalAddr {
    std::uint32_t seg = 0;
    std::uint32_t off = 0;
};

// ---- Deterministic load generation ---------------------------------------

/// Per-session operation stream: a SplitMix64 sequence seeded through the
/// canonical sim::stream_seed double mix (the same derivation the explorer
/// uses for run seeds), so adjacent sessions' streams are decorrelated.
/// Both backends draw from this generator, which is what makes sim grid
/// rows bit-identical for any --jobs and lets the native loadgen replay the
/// exact op mix the sim priced.
class OpStream {
   public:
    OpStream(std::uint64_t seed, std::uint32_t session)
        : state_(sim::stream_seed(seed, session)) {}

    /// Next raw 64-bit draw.
    std::uint64_t next() {
        state_ = sim::splitmix64(state_);
        return state_;
    }

    /// One lock-service op: which lock to hit and whether as a reader.
    struct LoadOp {
        std::uint32_t lock_index;  ///< In [0, num_locks).
        bool reader;
    };
    LoadOp next_op(std::uint32_t num_locks, std::uint32_t reader_pct) {
        const std::uint64_t r = next();
        LoadOp op;
        op.lock_index = static_cast<std::uint32_t>(r % num_locks);
        op.reader = (r >> 32) % 100 < reader_pct;
        return op;
    }

   private:
    std::uint64_t state_;
};

}  // namespace rwr::dist
