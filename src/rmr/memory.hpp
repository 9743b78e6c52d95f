// Simulated shared memory with RMR accounting.
//
// Owns the value of every shared variable and a CacheDirectory per variable.
// `apply` executes one step by one process, updates the coherence state per
// the configured protocol, and reports whether the step incurred an RMR and
// whether it was non-trivial (changed the variable's value) -- the two
// facts the paper's lower-bound machinery is built on.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "rmr/cache.hpp"
#include "rmr/op.hpp"
#include "rmr/types.hpp"

namespace rwr {

class Memory {
   public:
    explicit Memory(Protocol protocol) : protocol_(protocol) {}

    /// A variable with no DSM owner: every access is remote under Dsm.
    static constexpr ProcId kNoOwner = static_cast<ProcId>(-1);

    /// Allocates a fresh shared variable with the given initial value.
    /// `name` is kept for traces and debugging only. `owner` is the DSM
    /// home segment (ignored by the CC protocols).
    VarId allocate(std::string name, Word initial = 0,
                   ProcId owner = kNoOwner);

    /// Re-homes a variable for the DSM model.
    void set_owner(VarId v, ProcId owner) { owners_.at(v.index) = owner; }
    [[nodiscard]] ProcId owner(VarId v) const {
        assert(v.index < owners_.size());
        return owners_[v.index];
    }

    /// Executes one step. Local ops are rejected here (they never reach the
    /// memory); the caller handles them.
    OpResult apply(ProcId p, const Op& op);

    /// Peek at a variable without simulating a step (for checkers/tests).
    /// Hot for the simulated counters; bounds-checked in debug builds only.
    [[nodiscard]] Word peek(VarId v) const {
        assert(v.index < values_.size());
        return values_[v.index];
    }

    [[nodiscard]] Protocol protocol() const { return protocol_; }
    [[nodiscard]] std::size_t num_variables() const { return values_.size(); }
    [[nodiscard]] const std::string& name(VarId v) const {
        return names_.at(v.index);
    }

    /// Drops every cached copy held by `p` (all variables), leaving values
    /// and other processes' copies intact: the memory side of a
    /// crash-restart fault (CC models; a no-op under Dsm, which has no
    /// caches). The evicted process pays a fresh RMR for its next access to
    /// each variable, which is what makes recovery passages measurably more
    /// expensive than warm ones.
    void evict_all(ProcId p) {
        if (protocol_ == Protocol::Dsm) {
            // Dsm locality is home-based, not cache-based: the directories
            // are never populated, so there is nothing to evict. Returning
            // early keeps a DSM crash-restart's RMR trajectory bit-identical
            // to the crash-free one (and skips an O(#vars) dead walk).
            return;
        }
        for (auto& dir : dirs_) {
            dir.evict(p);
        }
    }

    [[nodiscard]] bool cached(ProcId p, VarId v) const {
        assert(v.index < dirs_.size());
        return dirs_[v.index].holds(p);
    }
    [[nodiscard]] bool cached_exclusive(ProcId p, VarId v) const {
        assert(v.index < dirs_.size());
        return dirs_[v.index].holds_exclusive(p);
    }

    /// Would executing `op` as process `p` incur an RMR, given the current
    /// coherence state? Pure predicate: no cache or counter updates. This is
    /// what the adaptive adversary scheduler consults to steer every step
    /// toward a remote reference (rmr/op.hpp's cost model, read-only).
    [[nodiscard]] bool would_rmr(ProcId p, const Op& op) const;

    /// Total RMRs incurred by all processes since construction.
    [[nodiscard]] std::uint64_t total_rmrs() const { return total_rmrs_; }
    /// Total shared-memory steps executed.
    [[nodiscard]] std::uint64_t total_steps() const { return total_steps_; }

    /// RMRs charged to process `p` alone (0 for a process that never took
    /// a shared-memory step). Sums to total_rmrs() across all processes.
    [[nodiscard]] std::uint64_t rmrs_by(ProcId p) const {
        return p < proc_rmrs_.size() ? proc_rmrs_[p] : 0;
    }
    /// Per-process RMR counters, indexed by ProcId. May be shorter than
    /// the process count: trailing zero-RMR processes are not materialized.
    [[nodiscard]] const std::vector<std::uint64_t>& proc_rmrs() const {
        return proc_rmrs_;
    }

   private:
    /// Updates coherence state for a read by p; returns true if RMR.
    bool coherent_read(ProcId p, VarId v);
    /// Updates coherence state for a write by p; returns true if RMR.
    bool coherent_write(ProcId p, VarId v);

    Protocol protocol_;
    std::vector<Word> values_;
    std::vector<CacheDirectory> dirs_;
    std::vector<std::string> names_;
    std::vector<ProcId> owners_;
    std::uint64_t total_rmrs_ = 0;
    std::uint64_t total_steps_ = 0;
    std::vector<std::uint64_t> proc_rmrs_;  ///< Grown on first RMR by a pid.
};

}  // namespace rwr
