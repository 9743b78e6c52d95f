// Sim backend of the sharded lock table: the layout.hpp word protocol
// executed as simulator coroutines, every verb an ordinary Memory step
// under Protocol::Dsm -- so the per-ProcId ledgers price each verb by the
// remote-iff-not-home rule and a cell's network-RMR counts are exact and
// deterministic (the E17 separation assertions run on this backend).
//
// The protocol, per lock entry (see layout.hpp for the word map):
//
//   Writers take a ticket (FAA WTicket) and are granted in FIFO order by
//   WGrant. HOMED waiters register the ticket in WSlot[t % sessions] and
//   spin on their own gate; the releaser advances WGrant, reads the one
//   slot for the next ticket and bumps that session's gate (O(1) network
//   RMRs however many writers wait). UNHOMED waiters re-poll WGrant.
//   The registration/grant race is a Dekker handshake: the waiter writes
//   its slot before re-reading WGrant, the releaser writes WGrant before
//   reading the slot -- under sequential consistency at least one side
//   observes the other, so no grant is ever lost.
//
//   The granted writer publishes WFlag = session+1, then drains readers:
//   it re-checks RCount and (HOMED) parks on its gate, woken by the last
//   decrementing reader; UNHOMED it re-polls RCount.
//
//   Readers check WFlag, FAA RCount +1, and re-check WFlag; if a writer
//   appeared they back out (FAA -1, waking a draining writer they were
//   the last reader of) and wait: HOMED by setting their bit in the
//   lock's RBitmap (FAA of the bit -- each session owns its bit) plus
//   RWaiters, spinning on their own gate until the releasing writer's
//   batch wake; UNHOMED by re-polling WFlag.
//
//   Mutual exclusion is witnessed, not assumed: writers CAS WWitness
//   0 -> session+1 after the drain and back on release, readers assert
//   WWitness == 0 at entry and exit. Every failed CAS / nonzero read
//   increments witness_violations() -- the exit-code ME check of E17.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/layout.hpp"
#include "dist/verbs.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::dist {

class DistTableSim {
   public:
    /// Allocates the table's words in `mem` (shard segments homed at
    /// server_base + shard, client segments at their sessions' ProcIds).
    DistTableSim(Memory& mem, const TableConfig& cfg, ProcId server_base);

    sim::SimTask<void> writer_acquire(sim::Process& p, std::uint32_t session,
                                      std::uint32_t lock);
    sim::SimTask<void> writer_release(sim::Process& p, std::uint32_t session,
                                      std::uint32_t lock);
    sim::SimTask<void> reader_acquire(sim::Process& p, std::uint32_t session,
                                      std::uint32_t lock);
    sim::SimTask<void> reader_release(sim::Process& p, std::uint32_t session,
                                      std::uint32_t lock);

    [[nodiscard]] std::uint64_t witness_violations() const {
        return violations_;
    }
    [[nodiscard]] const TableLayout& layout() const { return lay_; }

   private:
    [[nodiscard]] VarId v(GlobalAddr a) const { return svm_.var(a); }
    /// Spin on session's own gate until it moves past `epoch` (every read
    /// is a local step under the homing convention: 0 network RMRs).
    sim::SimTask<void> wait_gate(sim::Process& p, std::uint32_t session,
                                 Word epoch);

    TableLayout lay_;
    SimVerbMemory svm_;
    std::vector<std::uint64_t> held_ticket_;  ///< Per session, while holding.
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
