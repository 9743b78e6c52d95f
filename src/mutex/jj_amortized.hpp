// Constant-amortized-RMR deterministic abortable mutex, after
// Jayanti & Jayanti, "Deterministic constant-amortized-RMR abortable mutex
// for CC and DSM" (arXiv:1809.04561).
//
// The algorithm is a FIFO ticket lock whose abort path *abandons* the
// ticket instead of extracting it from the queue: an aborting waiter flips
// its queue entry from Waiting to Aborted in one CAS and leaves. A later
// lock release that reaches the abandoned entry consumes it in O(1) steps
// and moves on -- so the cleanup cost of an abort is O(1) and is charged
// to the abort episode, not to the passage that happens to sweep past it.
// Every completed passage therefore costs O(1) RMRs *amortized* over the
// history, in both CC and DSM (each waiter spins on its own wake word,
// which under DSM is homed in the waiter's memory segment), beating the
// Theta(log m) per-passage cost of the tournament locks on abort-heavy
// workloads. That is the separation experiment E18 measures.
//
// Queue representation (detail::TicketNode): a fetch&add ticket dispenser
// `tail`, a grant cursor `grant` (= ticket currently licensed to own the
// CS), and a ring of `state`/`claimant` word pairs indexed by ticket mod
// ring size. A state word packs (ticket, phase) so a slot reused by a
// later ticket can never be confused with its previous occupant; with at
// most one outstanding ticket per participant (an aborter re-arms its own
// abandoned entry before ever taking a fresh ticket) at most `parts`
// tickets in [grant, tail) are live, and a ring of 4 * bit_ceil(parts)
// entries keeps every live ticket's slot private to it.
//
// Handshake (the one race that matters): a claimant publishes its entry
// and THEN reads `grant`; the releaser advances `grant` and THEN reads the
// entry. Under the simulator's sequentially consistent memory one of the
// two second-reads must see the other's first-write, so either the
// releaser grants the entry or the claimant self-grants -- never neither.
// Ties (both see each other) are broken by CAS on the state word.
//
// The same TicketNode engine, instantiated per tree node with 2 wake cells
// per participant, is the building block of PwRandomizedMutex
// (mutex/pw_randomized.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

namespace detail {

/// One FIFO ticket queue with lazily-consumed abandoned entries. `parts`
/// is the number of distinct participant ids; each participant may have at
/// most one acquisition attempt in flight at a time (the SimMutex slot
/// discipline). `cells` wake words are allocated per participant so a
/// randomized wrapper can pick one per attempt; the deterministic lock
/// uses cells = 1.
class TicketNode {
   public:
    /// `coordinator`: DSM home of the queue words (tail/grant/state/
    /// claimant), each touched O(1) times per episode so any fixed home
    /// keeps them O(1). `cell_owner(part)`: DSM home of participant
    /// `part`'s wake words -- pass the spinner's own ProcId so the spin is
    /// local under Dsm; nullopt leaves everything unhomed (CC).
    TicketNode(Memory& mem, const std::string& name, std::uint32_t parts,
               std::uint32_t cells,
               std::optional<ProcId> coordinator = std::nullopt,
               const std::vector<ProcId>* cell_owners = nullptr);

    /// One acquisition attempt by participant `part`, spinning on its wake
    /// cell `cell_choice` (in [0, cells)). `steps` is the attempt's own
    /// entry-step counter, shared across nodes when stacked in a tree, and
    /// compared against ctl.patience to place the abort. An attempt that
    /// re-arms an abandoned entry keeps that entry's original wake cell
    /// (the claimant word is written exactly once, at fresh-claim time --
    /// rewriting it on re-arm could clobber a recycled ring slot's live
    /// claimant); cell_choice only takes effect on fresh tickets.
    sim::SimTask<EnterResult> enter(sim::Process& p, std::uint32_t part,
                                    std::uint32_t cell_choice,
                                    AbortControl ctl, std::uint64_t& steps);

    /// Release by the participant that last Acquired.
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t part);

    /// Mutant hook (sim/broken_locks.hpp): a "helpful" abort that advances
    /// the grant cursor past its own ticket instead of abandoning it,
    /// licensing the next claimant while the current holder is still in
    /// the CS. Proves the abort-placement exploration has teeth.
    void set_broken_abort_advances_grant(bool b) { broken_abort_ = b; }

   private:
    // Phase values packed into a state word as ticket * 8 + phase.
    static constexpr Word kWaiting = 1;   ///< Queued, spinning on wake.
    static constexpr Word kGranted = 2;   ///< Releaser handed over the CS.
    static constexpr Word kSelf = 3;      ///< Claimant saw grant == ticket.
    static constexpr Word kAborted = 4;   ///< Abandoned; consume lazily.
    static constexpr Word kConsumed = 5;  ///< Dead; slot reusable.

    [[nodiscard]] static Word pack(Word ticket, Word phase) {
        return ticket * 8 + phase;
    }
    [[nodiscard]] VarId state_of(Word ticket) const {
        return state_[ticket & (ring_ - 1)];
    }
    [[nodiscard]] VarId claimant_of(Word ticket) const {
        return claimant_[ticket & (ring_ - 1)];
    }

    std::uint32_t cells_;
    std::uint32_t ring_;  ///< Ring size, a power of two >= 4 * parts.
    VarId tail_;          ///< Ticket dispenser (fetch&add).
    VarId grant_;         ///< Ticket currently licensed to own the CS.
    std::vector<VarId> state_;     ///< Ring: packed (ticket, phase).
    std::vector<VarId> claimant_;  ///< Ring: wake-cell index + 1.
    std::vector<VarId> wake_;      ///< [part * cells_ + c]; exact-match
                                   ///< grant signal, value = ticket + 1.

    // Private per-participant bookkeeping (each participant only ever
    // reads/writes its own entry between its own steps; no sharing).
    std::vector<Word> outstanding_;  ///< Abandoned ticket + 1; 0 = none.
    std::vector<std::uint32_t> outstanding_cell_;  ///< Its sticky wake cell.
    std::vector<Word> holding_;      ///< Ticket of the current hold.

    bool broken_abort_ = false;
};

/// ProcId homes for per-participant spin words under the repo's DSM
/// convention (slot s is driven by owner_base + s); empty when unhomed.
[[nodiscard]] std::vector<ProcId> homed_cell_owners(
    std::uint32_t m, std::optional<ProcId> owner_base);

}  // namespace detail

/// The Jayanti-Jayanti constant-amortized abortable mutex: a single
/// TicketNode spanning all m participants, one wake cell each.
///
/// Homing convention (owner_base), as for YaTournamentSimMutex: slot s is
/// driven by ProcId owner_base + s, and slot s's wake word is homed there;
/// queue words live at the coordinator (owner_base + 0). CC protocols
/// ignore owners, so passing owner_base never changes CC numbers.
///
/// FIFO (hence starvation-free), bounded exit in the amortized sense: the
/// exit's settle loop only skips entries whose O(1) consumption is charged
/// to the abort that abandoned them.
class JJAmortizedMutex : public AbortableSimMutex {
   public:
    struct Options {
        std::optional<ProcId> owner_base;
        /// See TicketNode::set_broken_abort_advances_grant.
        bool broken_abort_advances_grant = false;
    };

    JJAmortizedMutex(Memory& mem, const std::string& name, std::uint32_t m)
        : JJAmortizedMutex(mem, name, m, Options{}) {}
    JJAmortizedMutex(Memory& mem, const std::string& name, std::uint32_t m,
                     Options opts);

    sim::SimTask<EnterResult> enter_abortable(sim::Process& p,
                                              std::uint32_t slot,
                                              AbortControl ctl) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "jj-amortized"; }

   private:
    std::vector<ProcId> cell_owners_;  ///< Built before node_; may be empty.
    detail::TicketNode node_;
};

}  // namespace rwr::mutex
