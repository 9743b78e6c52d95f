// The benchmark's four workloads. Each is generated from the seed and runs
// as a closed loop (every caller waits for its reply):
//
//   sim-sweep         the four passage runners on large simulated cells,
//                     one thread: per-step simulator cost dominates.
//   sim-explore       DPOR exploration of small scenarios, one thread:
//                     scenario rebuilds and short replays dominate.
//   native-rw         the AfSharedMutex facade doing 15/16 reads of a
//                     version+checksum record (threads: set_contended).
//   service-loopback  an in-process lock service daemon, one client, and
//                     NativeTable sessions, one per worker (90% reads).
//
// measure() with a null tracer is the untraced pass: it adds end-to-end
// metrics. With a tracer it is the traced pass: it records spans around
// each call into a layer and adds the per-layer metrics instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
    const char* name;
    /// One complete set-up of the workload's inputs and objects, torn down
    /// afterwards; returns the seconds it took (torn-down time excluded).
    double (*setup_once)(std::uint64_t seed);
    /// Runs for about `seconds` (at least one full round); returns the
    /// passages per second it sustained.
    double (*measure)(std::uint64_t seed, double seconds, Tracer* tracer,
                      Outcome& out);
};

/// Worker threads of native-rw and service-loopback. Off (the default, and
/// the end-to-end run): one thread, whose passages cost the same on every
/// run; contended throughput on a virtual machine swings with where the
/// host places the vCPUs. On (the traced run): nproc threads, at most 4, so
/// the contention layers (contended acquires, futex waits) have work.
void set_contended(bool on);

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Expected exact metrics for the default seed; a mismatch is a failure.
inline constexpr std::uint64_t kDefaultSeed = 1;

}  // namespace perfbench
