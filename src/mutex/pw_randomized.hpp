// Randomized abortable mutex with sub-logarithmic expected RMR cost, after
// Pareek & Woelfel, "RMR-efficient randomized abortable mutual exclusion"
// (arXiv:1208.1723, DISC 2012).
//
// Structure: a Delta-ary arbitration tree (Delta = max(2, ceil(log2 m)))
// whose every node is the abortable FIFO ticket queue of
// mutex/jj_amortized.hpp (detail::TicketNode). The tree height is
// ceil(log m / log Delta) = O(log m / log log m), which is where the
// sub-logarithmic per-passage cost comes from -- each node costs O(1)
// amortized RMRs, deterministic-adversary-proof, because it is the
// constant-amortized queue. Randomization enters exactly where it does in
// Pareek-Woelfel: each acquisition attempt flips a coin per node to decide
// which of its two wake words it parks on, so an adaptive adversary that
// steers the schedule toward remote references (sim::AdaptiveRmrScheduler)
// cannot pre-commit to camping on the "right" cell -- the expected-RMR
// benchmarking of E18 measures the algorithm against exactly that
// adversary, oblivious and adaptive, over seeded repeated trials.
//
// Coin flips come from a private per-slot SplitMix64 stream seeded through
// sim::stream_seed(seed, slot): runs are deterministic given (seed,
// schedule), which is what makes the repeated-trial estimation in
// mutex/abort_experiment.hpp bit-identical for any --jobs split.
//
// Abort: an attempt that runs out of patience at tree level L abandons its
// ticket there (O(1), charged to the abort) and releases the nodes it had
// already won at levels L-1..0, top-down -- O(height) own steps, matching
// the paper's bounded-abort shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mutex/jj_amortized.hpp"
#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

class PwRandomizedMutex final : public AbortableSimMutex {
   public:
    PwRandomizedMutex(Memory& mem, const std::string& name, std::uint32_t m,
                      std::uint64_t seed);

    sim::SimTask<EnterResult> enter_abortable(sim::Process& p,
                                              std::uint32_t slot,
                                              AbortControl ctl) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "pw-randomized"; }

    [[nodiscard]] std::uint32_t height() const { return height_; }
    [[nodiscard]] std::uint32_t delta() const { return delta_; }

   private:
    /// Index into nodes_ of `slot`'s arbiter at tree level `lvl`.
    [[nodiscard]] std::uint32_t node_index(std::uint32_t slot,
                                           std::uint32_t lvl) const {
        return level_offset_[lvl] +
               static_cast<std::uint32_t>(slot / group_span_[lvl]);
    }
    /// `slot`'s participant id within that node.
    [[nodiscard]] std::uint32_t local_part(std::uint32_t slot,
                                           std::uint32_t lvl) const {
        return static_cast<std::uint32_t>(slot % group_span_[lvl]);
    }
    /// Next coin flip from `slot`'s private stream.
    [[nodiscard]] std::uint32_t next_cell(std::uint32_t slot);

    std::uint32_t m_;
    std::uint32_t delta_;
    std::uint32_t height_;
    std::vector<std::uint64_t> group_span_;   ///< delta^(lvl+1) per level.
    std::vector<std::uint32_t> level_offset_;  ///< First node of each level.
    std::vector<detail::TicketNode> nodes_;    ///< Level-major, leaves first.
    std::vector<std::uint64_t> rng_;           ///< Per-slot coin stream.
};

}  // namespace rwr::mutex
