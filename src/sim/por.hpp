// Partial-order reduction primitives for the schedule explorer.
//
// The paper's step model (one shared-memory op per step, each op naming its
// exact variable and access kind) makes the classic dynamic partial-order
// reduction of Flanagan & Godefroid (POPL 2005) directly implementable:
// `Process::pending()` exposes the *next* op of every runnable process
// before it executes, so the explorer can decide, per tree node, which
// pending ops actually conflict with ops already executed on the path.
//
// Independence relation (the Mazurkiewicz-trace commutation test):
//   * a Local step touches no shared variable -> independent of everything;
//   * steps on different variables commute;
//   * two reads of the same variable commute;
//   * anything involving a write/CAS/FAA on the same variable conflicts
//     (CAS and FAA both read *and* may write, so they conflict with reads
//     and writes alike).
//
// Executing two adjacent independent steps in either order yields the same
// memory contents, the same per-process responses, and therefore the same
// subsequent behaviour -- which is exactly why the explorer may prune one of
// the two orders. Correctness of pruning additionally requires that every
// *observer* of the run be insensitive to the order of independent steps.
// Crash faults on victim-local step counts are. Checkers keyed on section
// state (MutualExclusionChecker, RmeChecker) are NOT: a process's CS dwell
// is a run of Local steps, independent of everything above, yet whether
// two processes are in the CS at the same moment depends on how that dwell
// interleaves with the other's entry and exit steps. So a clean reduced
// verdict does not prove mutual exclusion -- reduced DPOR misses the
// stale-wgate_ violation of the FAA lock's mutant writer
// (baselines::FaaMutant::StaleGate) that unreduced DFS and random schedules
// find
// (ROADMAP.md, "The next benchmark PR": "Reduced DPOR misses overlapping
// sections"). Anything keyed on the global step counter (Stall fault
// resume deadlines) is not insensitive either; Scenario::reduction_safe
// gates those out (explorer.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "rmr/op.hpp"
#include "rmr/types.hpp"

namespace rwr::sim {

/// Do the two steps conflict (order of execution can matter)?
[[nodiscard]] inline bool ops_dependent(const Op& a, const Op& b) {
    if (!a.touches_memory() || !b.touches_memory()) {
        return false;
    }
    if (a.var.index != b.var.index) {
        return false;
    }
    return a.is_writing() || b.is_writing();
}

[[nodiscard]] inline bool ops_independent(const Op& a, const Op& b) {
    return !ops_dependent(a, b);
}

/// One entry of a sleep set: "process `pid`'s step `op` was already fully
/// explored from an equivalent state; re-exploring it here is redundant".
struct SleepEntry {
    ProcId pid{};
    Op op;
};

using SleepSet = std::vector<SleepEntry>;

[[nodiscard]] inline bool sleep_contains(const SleepSet& sleep, ProcId pid) {
    for (const SleepEntry& e : sleep) {
        if (e.pid == pid) {
            return true;
        }
    }
    return false;
}

/// Sleep-set propagation across an executed step (pid, op): entries of the
/// stepping process are consumed (program order makes them dependent), and
/// entries whose op conflicts with the executed op wake up -- the executed
/// step changes what their continuation can observe, so they must be
/// re-explored.
[[nodiscard]] inline SleepSet sleep_after_step(const SleepSet& sleep,
                                               ProcId pid, const Op& op) {
    SleepSet next;
    next.reserve(sleep.size());
    for (const SleepEntry& e : sleep) {
        if (e.pid != pid && ops_independent(e.op, op)) {
            next.push_back(e);
        }
    }
    return next;
}

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"): a full-avalanche mix, so consecutive inputs map to
/// statistically independent outputs.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Canonical derivation of the i-th independent stream under seed `base`.
/// The double mix matters: `splitmix64(base + i)` alone would make adjacent
/// *base* seeds share all but one of their derived streams (base 42 stream 1
/// == base 43 stream 0), which silently halves the coverage of seed sweeps.
/// Mixing the base first puts adjacent bases ~2^64 apart in the index
/// sequence, so their stream seeds are disjoint in practice. Every seeded
/// component in the repo (explore_random runs, dist load-generator sessions,
/// randomized-mutex trials) derives through this one helper; see also the
/// harness-facing re-export in harness/seeds.hpp.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t base,
                                               std::uint64_t i) {
    return splitmix64(splitmix64(base) + i);
}

/// Per-run scheduler seed for explore_random run `i` under base seed `base`.
[[nodiscard]] inline std::uint64_t explore_run_seed(std::uint64_t base,
                                                    std::uint64_t i) {
    return stream_seed(base, i);
}

}  // namespace rwr::sim
