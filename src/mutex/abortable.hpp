// Abortable m-process mutexes for the simulator.
//
// The sim tier so far had no abort concept: SimMutex::enter either returns
// holding the lock or spins forever (aborts existed only natively, via
// Deadline). The abortable tier models the abort signal of the abortable
// mutual exclusion literature (Jayanti STOC'03 formulation): while busy-
// waiting in the entry section a process may receive an abort signal, after
// which it must leave the entry protocol within a bounded number of its own
// steps, restoring the invariant that it is a passive non-participant.
//
// AbortControl is the simulator's deterministic stand-in for that signal: an
// attempt aborts once it has executed `patience` shared-memory steps of its
// entry section. Patience is *process-local* state (the entry counts its own
// steps), so abort placement never reads the global clock -- which keeps
// abort scenarios safe under partial-order reduction (commuting independent
// steps of other processes cannot move the abort point), exactly like the
// crash-placement plans of the recover tier.
//
// enter_abortable() returns Acquired or Aborted. An aborted attempt may
// leave O(1) state behind (e.g. an abandoned queue entry) that a later
// passage of ANY process consumes in O(1) -- that deferred cleanup is what
// the amortized accounting in mutex/abort_experiment.hpp attributes back to
// the abort episode.
#pragma once

#include <cstdint>

#include "mutex/sim_mutex.hpp"
#include "sim/passage.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

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

}  // namespace rwr::mutex
