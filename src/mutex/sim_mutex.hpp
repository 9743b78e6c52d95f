// m-process mutual exclusion locks for the simulator.
//
// TournamentSimMutex is the writers' lock WL of Algorithm 1: the Peterson
// arbitration tree, abortable in place, as mutex/tournament_protocol.inc
// (which walks through the algorithm) compiled into simulator coroutines.
// The native TournamentMutex (native/mutex.hpp) compiles the same text.
//
// Aborts. The abort signal of the abortable mutual exclusion literature
// (Jayanti STOC'03 formulation): while busy-waiting in the entry section a
// process may receive an abort signal, after which it must leave the entry
// protocol within a bounded number of its own steps, restoring the
// invariant that it is a passive non-participant. AbortControl is the
// simulator's deterministic stand-in for that signal: an attempt aborts
// once it has executed `patience` shared-memory steps of its entry
// section. Patience is process-local state (the entry counts its own
// steps, never the global clock), so abort placement cannot move when
// independent steps of other processes commute -- which keeps abort
// scenarios safe under partial-order reduction, exactly like the
// crash-placement plans of the recover tier.
// AbortableSimMutex::enter_abortable returns Acquired or Aborted; an
// aborted attempt may leave O(1) state behind (e.g. an abandoned queue
// entry) that a later passage of ANY process consumes in O(1) -- that
// deferred cleanup is what the amortized accounting in
// mutex/abort_experiment.hpp attributes back to the abort episode.
//
// TasSimMutex is the contrast baseline: one test-and-set word; correct and
// deadlock-free but with unbounded RMR complexity under contention (every
// failed CAS is an RMR) and no starvation freedom.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rmr/memory.hpp"
#include "sim/passage.hpp"
#include "sim/process.hpp"
#include "sim/steps.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

class SimMutex {
   public:
    virtual ~SimMutex() = default;
    /// `slot` identifies the caller among the lock's m participants; each
    /// concurrent caller must use a distinct slot in [0, m).
    virtual sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) = 0;
    virtual sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) = 0;
    [[nodiscard]] virtual std::string name() const = 0;
};

/// drive() target (sim/passage.hpp) over a SimMutex: every participant is
/// a writer, and its slot is its role index.
struct MutexPassage {
    SimMutex& mx;

    sim::SimTask<void> entry(sim::Process& p) {
        return mx.enter(p, p.role_index());
    }
    sim::SimTask<void> exit(sim::Process& p) {
        return mx.exit(p, p.role_index());
    }
};

/// Per-attempt abort policy, polled by abortable entry sections between
/// their own steps. kNever = an ordinary (blocking) acquisition.
struct AbortControl {
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};
    /// Abort once the attempt has executed this many entry steps.
    std::uint64_t patience = kNever;

    [[nodiscard]] static AbortControl never() { return {}; }
    [[nodiscard]] static AbortControl after(std::uint64_t steps) {
        return {steps};
    }
};

using EnterResult = sim::EnterResult;

/// A SimMutex whose entry section can give up. `enter` (the non-abortable
/// base interface) is the never-abort special case, so every abortable
/// mutex drops into any slot that takes a SimMutex.
class AbortableSimMutex : public SimMutex {
   public:
    /// Returns Acquired holding the lock, or Aborted having left the entry
    /// protocol (bounded abort: the give-up path takes O(1) own steps for
    /// the queue-based locks, O(log m) for the tournament rollback).
    virtual sim::SimTask<EnterResult> enter_abortable(sim::Process& p,
                                                      std::uint32_t slot,
                                                      AbortControl ctl) = 0;

    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override {
        co_await enter_abortable(p, slot, AbortControl::never());
    }
};

class TournamentSimMutex final : public AbortableSimMutex,
                                 private sim::SimSteps {
   public:
    /// The size rule (shape_for) throws std::invalid_argument before
    /// anything is allocated.
    TournamentSimMutex(Memory& mem, const std::string& name, std::uint32_t m);

    sim::SimTask<EnterResult> enter_abortable(sim::Process& p,
                                              std::uint32_t slot,
                                              AbortControl ctl) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override {
        return release_below(p, slot, 0);
    }
    [[nodiscard]] std::string name() const override { return "tournament"; }

   private:
    // ---- The executor of mutex/tournament_protocol.inc -------------------
    struct Attempt {
        AbortControl ctl;
        std::uint64_t start;  ///< The process's step count as it began.
    };
    struct Node {
        VarId flag[2];  ///< "I am competing" per side.
        VarId victim;   ///< Which side yields.
    };

    auto write_victim(sim::Process& p, std::uint32_t n, std::uint32_t side) {
        return p.write(nodes_[n].victim, side);
    }
    sim::SimTask<bool> wait_turn(sim::Process& p, Attempt& a, std::uint32_t n,
                                 std::uint32_t side);
    static void wake(std::uint32_t) {}

#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "mutex/tournament_protocol.inc"

    Shape shape_;
    std::vector<Node> nodes_;  ///< Heap-ordered; nodes_[0] is the root.
};

/// Arbitration tree over the Yang-Anderson two-process local-spin lock
/// (Yang & Anderson, Distributed Computing 1995) instead of Peterson
/// nodes. Same shape and O(log m) CC passage cost as TournamentSimMutex,
/// but every spin is on a dedicated per-slot per-level variable that only
/// the rival writes -- so with `owner_base` the spin variables live in the
/// spinner's DSM segment and the passage cost is O(log m) under Dsm too.
/// The Peterson tree cannot be homed this way: its per-node flag/victim
/// words are spun on by whichever process currently competes on the other
/// side, so no single home is ever right; that makes TournamentSimMutex
/// the natural unhomed-spin ablation in bench_separation (E15).
///
/// Reads and writes only, starvation-free, bounded exit (the exit is
/// wait-free: one write + one read + at most one write per level), so it
/// qualifies as Algorithm 1's WL wherever the Peterson tree does.
///
/// Homing convention (owner_base): participant slot s is driven by the
/// process with ProcId owner_base + s, and every variable that slot s
/// spins on is allocated with that owner. CC protocols ignore owners, so
/// passing owner_base never changes WriteThrough/WriteBack numbers.
class YaTournamentSimMutex final : public SimMutex {
   public:
    /// Throws std::invalid_argument, before anything is allocated, unless
    /// 1 <= m <= 2^31 (the Peterson tree's size rule).
    YaTournamentSimMutex(Memory& mem, const std::string& name, std::uint32_t m,
                         std::optional<ProcId> owner_base = std::nullopt);

    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "ya-tournament"; }

   private:
    struct Node {
        VarId comp[2];  ///< Competitor slot + 1 per side; 0 = nobody.
        VarId turn;     ///< Slot + 1 of the last process to write it.
    };

    /// Spin variable of `slot` at tree level `lvl` (0 = leaf level).
    /// Values: 0 = reset by owner, 1 = rival's "I saw you" nudge,
    /// 2 = rival's exit grant.
    [[nodiscard]] VarId spin_of(std::uint32_t slot, std::uint32_t lvl) const {
        return spin_[slot * levels_ + lvl];
    }

    sim::SimTask<void> node_enter(sim::Process& p, std::uint32_t n, Word side,
                                  std::uint32_t slot, std::uint32_t lvl);
    sim::SimTask<void> node_exit(sim::Process& p, std::uint32_t n, Word side,
                                 std::uint32_t slot, std::uint32_t lvl);

    std::uint32_t m_;
    std::uint32_t num_leaves_;
    std::uint32_t levels_;
    std::vector<Node> nodes_;  ///< Heap-ordered; nodes_[0] is the root.
    std::vector<VarId> spin_;  ///< [slot * levels_ + lvl], homed at slot.
};

/// MCS queue lock (Mellor-Crummey & Scott 1991), built from read, write and
/// CAS (the fetch-and-store of the original is a CAS retry loop here).
/// Each waiter spins on its OWN queue node, which its predecessor clears:
/// local spinning under cache coherence AND under DSM when the per-slot
/// nodes are homed at their owners (pass `owner_base`) -- the contrast to
/// the Peterson tree, whose spin variables are shared (see bench_mutex and
/// bench_dsm).
///
/// FIFO, hence starvation-free. NOT Bounded Exit: a releasing process whose
/// successor has swapped the tail but not yet announced itself must wait
/// one step for it -- which is why Algorithm 1's WL stays the Peterson
/// tree (the paper requires WL to satisfy Bounded Exit).
class McsSimMutex final : public SimMutex {
   public:
    McsSimMutex(Memory& mem, const std::string& name, std::uint32_t m,
                std::optional<ProcId> owner_base = std::nullopt);

    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "mcs"; }

   private:
    /// In tail_/next_: 0 = null, k+1 = queue node of slot k. Nobody ever
    /// spins on the tail (it is CASed O(1) times per passage), so any fixed
    /// home keeps the DSM passage cost O(1); we home it at the coordinator
    /// (slot 0's process, owner_base + 0) so that, like every other
    /// variable of a homed lock, it lives in *some* participant's segment.
    VarId tail_;
    std::vector<VarId> locked_;  ///< Per slot; cleared by the predecessor.
    std::vector<VarId> next_;    ///< Per slot; successor link.
};

class TasSimMutex final : public SimMutex {
   public:
    TasSimMutex(Memory& mem, const std::string& name);

    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "tas"; }

   private:
    VarId locked_;
};

}  // namespace rwr::mutex
