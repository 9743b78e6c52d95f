// The lower-bound adversary: an executable rendition of the proof of
// Theorem 5 (and Figure 1).
//
// Given any simulated reader-writer lock, the adversary constructs the
// execution E = E1 E2 E3:
//
//   E1: every reader runs SOLO through its entry section into the CS.
//       (Feasible for any lock satisfying Concurrent Entering; the
//       big-mutex baseline fails here, and the adversary reports that.)
//
//   E2: the knowledge fragment is re-based at C1 (AW(p) = {p}, F(v) = ∅ --
//       the paper's key extension: knowledge over fragments). Readers then
//       perform their exit sections in iterations σ0 σ1 ... σr:
//         - every not-yet-finished reader advances until its *pending* step
//           would be an expanding step (Definition 3), run to fixpoint;
//         - the poised expanding steps are released as one batch in the
//           Lemma 2 phase order: plain reads first, then CAS/FAA steps
//           grouped by variable (so at most one CAS per variable is
//           non-trivial and knowledge grows by a factor <= 3 per batch for
//           read/write/CAS algorithms).
//       r = number of batches. Theorem 5: r = Ω(log3(n / f(n))), and some
//       reader executes r expanding steps -- each an RMR (Lemma 1) -- in
//       its exit section alone.
//
//   E3: the single writer runs solo through its entry section into the CS.
//       Lemma 4: it must end up aware of every reader that exited in E2;
//       the adversary verifies this directly on the awareness bitsets.
//
// The adversary works against *any* SimRWLock, which is what makes the E2/E3
// benches comparative: A_f hits the tradeoff frontier, the centralized CAS
// lock is forced into Θ(n)-RMR reader exits, and the FAA lock escapes the
// bound entirely (its per-batch knowledge growth factor exceeds 3 --
// exactly where Lemma 2's argument needs the CAS-triviality trick).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/locks.hpp"
#include "knowledge/awareness.hpp"
#include "rmr/types.hpp"

namespace rwr::adversary {

struct AdversaryConfig {
    harness::LockKind lock = harness::LockKind::Af;
    Protocol protocol = Protocol::WriteBack;
    std::uint32_t n = 8;  ///< Readers. (Single writer, per Theorem 5.)
    std::uint32_t f = 1;  ///< A_f parameter (ignored by baselines).
    std::uint64_t iteration_cap = 0;  ///< 0 = auto (n + 64).
};

struct IterationStats {
    std::uint32_t batch_size = 0;      ///< Poised readers released.
    std::uint32_t readers_left = 0;    ///< Still exiting after the batch.
    std::size_t max_knowledge = 0;     ///< M(C1 -> E'_j) after iteration j.
    double growth_factor = 0;          ///< Knowledge growth in this batch.
};

struct AdversaryResult {
    bool e1_feasible = false;   ///< All readers reached the CS solo.
    bool completed = false;     ///< Whole construction ran to the end.
    std::string note;

    std::uint64_t r = 0;  ///< Number of expanding-step batches (iterations).
    double log3_bound = 0;  ///< log3(n / f): Theorem 5's lower bound on r.

    /// Max expanding steps any single reader executed in its exit (the
    /// "surviving reader" R_t of the theorem; each costs an RMR by Lemma 1).
    std::uint64_t survivor_expanding_steps = 0;
    /// Max RMRs any reader incurred in its exit section during E2.
    std::uint64_t max_reader_exit_rmrs = 0;
    /// Mean RMRs over all readers' exit sections during E2.
    double mean_reader_exit_rmrs = 0;

    std::uint64_t writer_entry_rmrs = 0;
    std::uint64_t writer_entry_steps = 0;
    std::uint64_t writer_expanding_steps = 0;
    /// |AW(W1)| after E3; Lemma 4 demands >= n + 1 (all readers + itself).
    std::size_t writer_awareness = 0;
    bool lemma4_holds = false;

    std::uint64_t lemma1_violations = 0;
    /// Max per-batch knowledge growth factor; <= 3 for read/write/CAS locks
    /// (Lemma 2), unbounded for FAA-based ones.
    double max_growth_factor = 0;

    std::vector<IterationStats> iterations;
};

AdversaryResult run_adversary(const AdversaryConfig& cfg);

}  // namespace rwr::adversary
