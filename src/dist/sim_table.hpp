// Sim backend of the sharded lock table: table_protocol.inc compiled as
// simulator coroutines, every verb an ordinary Memory step under
// Protocol::Dsm -- so the per-ProcId ledgers price each verb by the
// remote-iff-not-home rule and a cell's network-RMR counts are exact and
// deterministic (the E17 separation assertions run on this backend).
//
// Homing (the service-level analogue of the DSM mutexes' owner_base):
// shard segments are homed at virtual server ProcIds *above* the client pid
// range -- no client is ever co-located with a shard, so every verb on a
// shard word is a network RMR for every session -- and client segment
// shards + s is homed at ProcId s, making a session's spin on its own gate
// free, exactly like a homed-spin lock in E15.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/layout.hpp"
#include "dist/verbs.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::dist {

class DistTableSim {
   public:
    /// Allocates the table's words in `mem` (shard segments homed at
    /// server_base + shard, client segments at their sessions' ProcIds).
    DistTableSim(Memory& mem, const TableConfig& cfg, ProcId server_base);

    /// Session `id` run by process `p` (pid id under the homing rule).
    /// Must outlive every operation it runs.
    struct Session {
        sim::Process& p;
        std::uint32_t id;
    };

    /// Acquire returns the writer's ticket; release takes it back.
    sim::SimTask<std::uint64_t> writer_acquire(Session& s,
                                               std::uint32_t lock);
    sim::SimTask<void> writer_release(Session& s, std::uint32_t lock,
                                      std::uint64_t ticket);
    sim::SimTask<void> reader_acquire(Session& s, std::uint32_t lock);
    sim::SimTask<void> reader_release(Session& s, std::uint32_t lock);

    [[nodiscard]] std::uint64_t witness_violations() const {
        return violations_;
    }

   private:
    // The protocol's executor (table_protocol.inc): an op resolves each
    // word it touches to its variable before its first verb; each verb is
    // then one Process step on that variable.
    template <class T>
    using Task = sim::SimTask<T>;
    struct Backoff {
        void pause() {}
    };

    [[nodiscard]] VarId lock_ref(std::uint32_t lock, LockField f) const {
        return vars_[lay_.flat_index(lay_.lock_word(lock, f))];
    }
    [[nodiscard]] VarId word(const Session&, GlobalAddr a) const {
        return vars_[lay_.flat_index(a)];
    }
    auto read(Session& s, VarId v) { return s.p.read(v); }
    auto write(Session& s, VarId v, Word w) { return s.p.write(v, w); }
    auto cas(Session& s, VarId v, Word expected, Word desired) {
        return s.p.cas(v, expected, desired);
    }
    auto faa(Session& s, VarId v, Word delta) {
        return s.p.fetch_add(v, delta);
    }
    /// Bump `session`'s gate (its wake-up).
    auto bump(Session& s, std::uint32_t session) {
        return faa(s, word(s, lay_.gate_word(session)), 1);
    }
    /// Spin on the session's own `gate` until it moves past `epoch` (every
    /// read is a local step under the homing rule: 0 network RMRs).
    sim::SimTask<void> wait_gate(Session& s, VarId gate, Word epoch);
    void violation(Session&) { ++violations_; }

    TableLayout lay_;
    std::vector<VarId> vars_;  ///< One per word, in flat_index order.
    std::uint64_t violations_ = 0;
};

// ---- Cell runner ----------------------------------------------------------

struct DistSimConfig {
    TableConfig table;
    std::uint32_t ops_per_session = 8;
    std::uint32_t reader_pct = 50;      ///< % of ops that are read acquires.
    std::uint32_t writer_cs_steps = 1;  ///< Local dwell inside a write CS.
    std::uint64_t seed = 1;
    std::uint64_t max_steps = 500'000'000;
};

struct DistSimResult {
    bool finished = false;
    std::uint64_t steps = 0;
    std::uint64_t total_ops = 0;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    /// Network RMRs summed over all sessions (= Memory::total_rmrs: the
    /// virtual server homes never take steps).
    std::uint64_t network_rmrs = 0;
    double network_rmrs_per_op = 0;
    std::uint64_t witness_violations = 0;
    std::vector<std::uint64_t> session_rmrs;  ///< Per session pid.
};

/// Runs one sim cell: `sessions` processes each executing their
/// OpStream-driven acquire/release stream under a round-robin scheduler.
/// Deterministic: depends only on the config (including seed).
DistSimResult run_dist_sim(const DistSimConfig& cfg);

/// Runs a grid of cells on `jobs` worker threads (harness/pool.hpp).
/// Results are bit-identical for any jobs value: each cell is an
/// independent, thread-confined System.
std::vector<DistSimResult> run_dist_sim_grid(
    const std::vector<DistSimConfig>& cfgs, unsigned jobs);

}  // namespace rwr::dist
