// Parallel sweep runner for independent experiment cells.
//
// Every (lock, protocol, n, m, f, seed) cell of a bench grid owns a private
// Memory + System (built inside run_experiment), so cells are embarrassingly
// parallel: a fixed-size std::thread pool pulls cell indices from an atomic
// counter. Determinism: which worker executes a cell cannot influence that
// cell's result -- the simulation is single-threaded within the cell and all
// randomness comes from the per-cell seed -- so per-cell results are
// bit-identical for any --jobs value (test_parallel.cpp proves it for
// jobs=1 vs jobs=8, including recorded schedules).
//
// The pool itself (default_jobs / parallel_for) is inline in
// harness/pool.hpp so the sim explorer can share it without a harness link.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/pool.hpp"

namespace rwr::harness {

/// Runs one experiment per config on the pool; results come back in config
/// order regardless of completion order or thread count.
[[nodiscard]] std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentConfig>& cfgs, unsigned jobs);

}  // namespace rwr::harness
