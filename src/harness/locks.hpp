// Registry of simulated reader-writer locks, so tests and benches can sweep
// "every lock" uniformly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rmr/memory.hpp"
#include "sim/rwlock.hpp"

namespace rwr::harness {

enum class LockKind {
    Af,           ///< The paper's A_f (core contribution); needs f.
    AfDsm,        ///< A_f with AfParams::dsm_local_spin: DSM-homed spin
                  ///< variables (af_params.hpp). Deliberately NOT in
                  ///< all_lock_kinds() -- it is a Protocol::Dsm variant and
                  ///< would only duplicate Af in the CC sweeps; E15 and
                  ///< test_dsm_locks name it explicitly.
    Centralized,  ///< One-word CAS lock.
    Faa,          ///< Fetch-and-add centralized lock (outside the tradeoff).
    PhaseFair,    ///< Brandenburg-Anderson PF-T (FAA; the fairness side of
                  ///< the paper's open problem).
    ReaderPref,   ///< Courtois-style two-mutex lock.
    BigMutex,     ///< Single mutex for everyone (degenerate).
};

[[nodiscard]] std::string to_string(LockKind k);

/// All kinds, for sweeps.
[[nodiscard]] const std::vector<LockKind>& all_lock_kinds();

/// Constructs a lock over `mem`. `f` is used only by LockKind::Af (clamped
/// to [1, n]).
std::unique_ptr<sim::SimRWLock> make_sim_lock(LockKind kind, Memory& mem,
                                              std::uint32_t n,
                                              std::uint32_t m,
                                              std::uint32_t f = 1);

}  // namespace rwr::harness
