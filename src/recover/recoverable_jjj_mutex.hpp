// Recoverable m-process mutual exclusion with sub-logarithmic worst-case
// RMR passage cost: a Delta-ary arbitration tree of recoverable ticket
// nodes, after Jayanti-Jayanti-Joshi (arXiv:1904.02124).
//
// The Theta(log m) cost of the recoverable tournament
// (recoverable_mutex.hpp) is the *height* of its binary tree. JJJ's
// observation is that a tree node need not be a 2-party lock: with a
// ticket (queue) lock per node, one node can arbitrate Delta parties at
// O(1) RMRs per party per passage -- each party spins on a grant slot of
// its own ticket, invalidated exactly once -- so the tree has height
// ceil(log m / log Delta). With Delta = Theta(log m), namely
// Delta = max(2, ceil(log2 m)), that is O(log m / log log m): strictly
// below any Omega(log n) curve, which is what the E14 grid measures
// against the tournament.
//
// --- One node: a Delta-ported recoverable ticket lock ------------------
//
// Per node, with S = 2*Delta grant slots:
//   tail        (next_ticket << 8) | (last_taker_port + 1); CASed to take
//               a ticket. Initially 0 (next ticket 0, no taker).
//   obs[q]      the tail value port q last observed BEFORE a CAS attempt
//               -- its certificate ledger (see recovery).
//   tkt[q]      port q's persisted ticket + 1; 0 = none.
//   nstate[q]   per-port stage: Idle / Trying / Holder / Releasing.
//   grant[s]    granted ticket + 1 for tickets == s (mod S). Initially
//               grant[0] = 1 (ticket 0 is granted), the rest 0.
//
// Enter (port q): nstate = Trying; then the certified-CAS loop
//     { cur = read(tail); write obs[q] = cur; CAS tail from cur to
//       (ticket(cur)+1, q) } until the CAS lands, taking ticket
//     t = ticket(cur);
// persist tkt[q] = t + 1; spin until grant[t mod S] == t + 1; nstate =
// Holder. Exit (port q): nstate = Releasing; t = tkt[q] - 1; grant
// ticket t+1 by writing grant[(t+1) mod S] = t + 2 (guarded, see below);
// tkt[q] = 0; nstate = Idle.
//
// Why the spin is O(1) RMR (CC): grants are sequential (ticket v is
// granted only after v-1 is released), so every ticket < the smallest
// unreleased one is released and the *unreleased tickets form a
// contiguous window held by distinct ports* -- at most Delta of them,
// strictly fewer than S. Hence concurrent spinners occupy distinct grant
// slots mod S, each slot is written at most once while a spinner waits,
// and the spin is an exact-value match (values t+1, t+1+S, ... never
// alias within a window), so there is no ABA to guard.
//
// --- Crash recovery at a node ------------------------------------------
//
// The hard case is a crash inside the certified-CAS loop: did our CAS
// land before tkt[q] was persisted? The certificate argument: every tail
// value (t+1, q) written by a successful CAS survives *somewhere* until
// ticket t is released by q. Either it is still in tail, or the port r
// that CASed over it first observed it -- writing obs[r] = (t+1, q) --
// and r is now stuck spinning for grant t+1, which requires q's release;
// r re-attempts a CAS (overwriting obs[r]) only in a later passage or in
// a recovery that found no certificate of its own, and inductively r's
// own certificate exists, so r adopts instead of re-CASing. Recovery
// with tkt[q] == 0 therefore scans tail plus all obs[] for a value whose
// taker field is q, filters out released tickets (grant[(u+1) mod S] >=
// u+2 -- stale certificates from completed passages), and adopts the
// unique unreleased one; if none, the CAS never landed and the loop is
// re-run fresh. The same argument gives at-most-one unreleased ticket
// per port, which is what keeps the window bound above intact across
// crash chains. Cost: O(Delta) reads, once per crash -- not on the
// crash-free passage path.
//
// A crash during release re-runs it, with the grant write *guarded*
// (write t+2 only while grant slot < t+2): while the slot is below t+2
// no other process writes that slot (the next writer needs ticket t+1+S
// released, which transitively needs our grant), and once it is >= t+2
// our write already landed and re-writing could clobber a newer grant
// S tickets later. Releasing with tkt already cleared is a no-op.
//
// --- Whole-lock composition --------------------------------------------
//
// Slots take the nodes on their leaf-to-root path in order (release is
// root-to-leaf, reverse acquisition order, like the tournament), under
// the same per-slot persistent stage word protocol as the tournament:
// Idle -> Trying -> InCS -> Exiting -> Idle. Global recovery dispatches
// on the stage, then walks the path dispatching on each node's nstate
// (Holder: keep / skip; Trying: certificate repair; Idle: fresh enter or
// already released). Critical-Section Reentry stays O(1): stage InCS is
// one read. Ports above the leaf level are shared by all slots of a
// subtree, serially: while a slot holds its (exclusive) leaf port, every
// subtree peer is blocked at that leaf, so the shared upper ports cannot
// be touched by anyone else. Exit recovery leans on exactly this: the
// leaf's nstate says whether the crashed release got past the leaf grant
// -- if the leaf is still Held the upper leftovers are ours to finish
// (top-down, matching release order); otherwise every upper node was
// already released and a peer may be re-using those ports, so recovery
// finishes the leaf alone and must not touch anything above it.
//
// --- DSM mode (owner_base) ---------------------------------------------
//
// With `owner_base` set, slot s is driven by the process with ProcId
// owner_base + s and the lock follows the JJJ paper's DSM construction:
// the grant slots stay the source of truth, but nobody spins on them.
// Each slot s owns a *wake cell* wcell[s], homed in its own segment and
// bumped (fetch_add, hence monotone) by releasers; each node keeps an
// advisory registry wproc[gs] = "slot + 1 currently waiting on grant
// slot gs" (at most one at a time: concurrent waiters occupy distinct
// grant slots mod S). Waiting becomes: snapshot own wcell, register in
// wproc, RE-READ the grant, then spin locally until the wcell moves.
// Releasing becomes: guarded grant write, then read wproc and bump the
// registered waiter's wcell. No lost wakes: if the releaser's grant
// write precedes the waiter's re-read, the waiter sees the grant
// directly; otherwise the waiter's registration precedes the releaser's
// wproc read, so the bump lands after the snapshot and the local spin
// breaks. The layer is crash-safe because it is advisory: recovery
// mid-wait simply re-registers, and a duplicate bump from a re-run
// release (recovery re-reads wproc even when the grant guard says the
// write already landed -- the first run may have died between the two)
// costs one spurious local re-check. A winner retires its registration
// with a CAS (never a blind write: a successor waiting on the same
// grant slot S tickets later may have registered already). Leaf-level
// per-port words (obs/tkt/nstate) are exclusive to their slot and are
// homed with it; tail, upper ports and the grant words are O(1)
// non-spin accesses per passage and stay unhomed.
//
// HONEST CAVEATS vs the paper version: the entry loop is lock-free, not
// wait-free -- a CAS can retry O(Delta) times under a contention burst
// (JJJ use fetch-and-store to make enqueue O(1), but an FAS ticket leaves
// no certificate trail for crash recovery under this simulator's op set;
// the CAS-certify loop is the price of recoverability here). The E14 claim
// is about the *tree height* term, which dominates the measured passage
// RMRs, and which the grid shows dropping from log2 m to
// ceil(log m / log Delta); E15 checks the DSM mode's local-spin claim.
//
// tests/test_recover_jjj.cpp unit-tests the node protocol including the
// lost-ticket window; tests/test_recover_explore.cpp model-checks ME +
// CSR over every single- and nested double-crash placement at small m.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "recover/recoverable_lock.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::recover {

class RecoverableJJJMutex final : public RecoverableSlotMutex {
   public:
    /// The node arity is max(2, ceil(log2 m)), the sub-logarithmic-height
    /// regime; it fits the tail encoding's 8-bit port field. `owner_base`
    /// enables the DSM mode (see header): slot s is assumed to run on
    /// ProcId owner_base + s. CC protocols ignore owners, and the wake
    /// layer it enables only changes which variables the wait loop
    /// touches, never who wins.
    RecoverableJJJMutex(Memory& mem, const std::string& name, std::uint32_t m,
                        std::optional<ProcId> owner_base = std::nullopt);

    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> exit_slot(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> recover_slot(sim::Process& p, std::uint32_t slot,
                                    RecoveryOutcome& out) override;

    [[nodiscard]] std::string name() const override {
        return "recoverable-jjj";
    }

    [[nodiscard]] Word stage_of(const Memory& mem,
                                std::uint32_t slot) const override {
        return mem.peek(stage_.at(slot));
    }

    [[nodiscard]] std::uint32_t delta() const { return delta_; }
    /// Tree height in nodes on a slot's path (1 when m <= delta).
    [[nodiscard]] std::uint32_t height() const { return height_; }

    // Per-port node stages (distinct from the whole-lock stage encoding).
    static constexpr Word kNIdle = 0;
    static constexpr Word kNTrying = 1;
    static constexpr Word kNHolder = 2;
    static constexpr Word kNReleasing = 3;

   private:
    struct Node {
        VarId tail;
        std::vector<VarId> obs;     ///< Per port.
        std::vector<VarId> tkt;     ///< Per port.
        std::vector<VarId> nstate;  ///< Per port.
        std::vector<VarId> grant;   ///< S = 2 * delta slots.
        std::vector<VarId> wproc;   ///< DSM mode only: waiter registry,
                                    ///< slot + 1 per grant slot (0 = none).
    };

    // Tail packing. ticket_of/taker_of decode a certificate value.
    [[nodiscard]] static Word pack(Word next_ticket, std::uint32_t taker) {
        return (next_ticket << 8) | (taker + 1);
    }
    [[nodiscard]] static Word next_ticket_of(Word v) { return v >> 8; }
    /// Port that wrote `v` (took ticket next_ticket_of(v) - 1), or
    /// UINT32_MAX for the initial value.
    [[nodiscard]] static std::uint32_t taker_of(Word v) {
        return static_cast<std::uint32_t>(v & 0xff) - 1;
    }

    /// (node index, port) pairs on `slot`'s path, leaf level first.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> path_of(
        std::uint32_t slot) const;

    [[nodiscard]] std::uint32_t grant_slots() const { return 2 * delta_; }

    // -- Node protocol. `t` is always the raw ticket number; `slot` is the
    // caller's whole-lock slot (the wake layer's wcell index). ------------
    /// Spin until ticket `t` is granted, then mark Holder. DSM mode waits
    /// on wcell_[slot] instead of the grant word (see header).
    sim::SimTask<void> node_await_grant(sim::Process& p, const Node& nd,
                                        std::uint32_t port, std::uint32_t slot,
                                        Word t);
    /// Certified-CAS loop from scratch + persist + spin (nstate already
    /// Trying).
    sim::SimTask<void> node_take_fresh(sim::Process& p, const Node& nd,
                                       std::uint32_t port, std::uint32_t slot);
    /// Grant ticket t+1, guarded (idempotent across re-runs); DSM mode
    /// then wakes the registered waiter.
    sim::SimTask<void> node_grant_next(sim::Process& p, const Node& nd,
                                       Word t);
    sim::SimTask<void> node_enter(sim::Process& p, const Node& nd,
                                  std::uint32_t port, std::uint32_t slot);
    sim::SimTask<void> node_release(sim::Process& p, const Node& nd,
                                    std::uint32_t port);
    /// Trying repair: resume spin, adopt a certified lost ticket, or
    /// re-run the loop; ends Holder.
    sim::SimTask<void> node_recover_trying(sim::Process& p, const Node& nd,
                                           std::uint32_t port,
                                           std::uint32_t slot);
    /// Idempotent release completion for exit recovery: dispatches on
    /// nstate (Idle: nothing; Holder: full release; Releasing: finish).
    sim::SimTask<void> node_finish_release(sim::Process& p, const Node& nd,
                                           std::uint32_t port);

    std::uint32_t m_;
    std::uint32_t delta_;
    std::uint32_t height_;
    /// level_base_[l] = index of the first node of level l in nodes_;
    /// level l has level_count_[l] nodes (level_count_ back() == 1).
    std::vector<std::uint32_t> level_base_;
    std::vector<std::uint32_t> level_count_;
    std::vector<Node> nodes_;
    std::vector<VarId> stage_;  ///< Per slot: kIdle/kTrying/kInCS/kExiting.
    std::optional<ProcId> owner_base_;  ///< DSM mode iff set.
    std::vector<VarId> wcell_;  ///< DSM mode: per-slot wake cell, homed
                                ///< at owner_base_ + slot. Monotone.
};

}  // namespace rwr::recover
