#include "mutex/pw_randomized.hpp"

#include <bit>

#include "sim/por.hpp"

namespace rwr::mutex {

PwRandomizedMutex::PwRandomizedMutex(Memory& mem, const std::string& name,
                                     std::uint32_t m, std::uint64_t seed)
    : m_(m == 0 ? 1 : m),
      delta_(std::max<std::uint32_t>(2,
                                     std::bit_width(std::bit_ceil(m_) - 1))) {
    // Height: smallest h with delta^h >= m, at least 1 (a single root node
    // still arbitrates the m = 1..delta participants).
    std::uint64_t span = delta_;
    height_ = 1;
    while (span < m_) {
        span *= delta_;
        ++height_;
    }
    std::uint64_t group = delta_;
    for (std::uint32_t lvl = 0; lvl < height_; ++lvl) {
        group_span_.push_back(group);
        level_offset_.push_back(static_cast<std::uint32_t>(nodes_.size()));
        const auto num_nodes =
            static_cast<std::uint32_t>((m_ + group - 1) / group);
        for (std::uint32_t k = 0; k < num_nodes; ++k) {
            const auto parts = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(m_ - k * group, group));
            nodes_.emplace_back(mem,
                                name + ".l" + std::to_string(lvl) + "n" +
                                    std::to_string(k),
                                parts, /*cells=*/2);
        }
        group *= delta_;
    }
    rng_.reserve(m_);
    for (std::uint32_t s = 0; s < m_; ++s) {
        rng_.push_back(sim::stream_seed(seed, s));
    }
}

std::uint32_t PwRandomizedMutex::next_cell(std::uint32_t slot) {
    rng_[slot] = sim::splitmix64(rng_[slot]);
    return static_cast<std::uint32_t>(rng_[slot] & 1);
}

sim::SimTask<EnterResult> PwRandomizedMutex::enter_abortable(sim::Process& p,
                                                             std::uint32_t slot,
                                                             AbortControl ctl) {
    std::uint64_t steps = 0;
    for (std::uint32_t lvl = 0; lvl < height_; ++lvl) {
        const std::uint32_t node = node_index(slot, lvl);
        const std::uint32_t part = local_part(slot, lvl);
        const std::uint32_t choice = next_cell(slot);
        const EnterResult r =
            co_await nodes_[node].enter(p, part, choice, ctl, steps);
        if (r == EnterResult::Aborted) {
            // Roll back the levels already won, top-down (highest first),
            // exactly like a normal exit truncated at the abort level.
            for (std::uint32_t back = lvl; back > 0; --back) {
                const std::uint32_t bn = node_index(slot, back - 1);
                co_await nodes_[bn].exit(p, local_part(slot, back - 1));
            }
            co_return EnterResult::Aborted;
        }
    }
    co_return EnterResult::Acquired;
}

sim::SimTask<void> PwRandomizedMutex::exit(sim::Process& p,
                                           std::uint32_t slot) {
    for (std::uint32_t back = height_; back > 0; --back) {
        const std::uint32_t node = node_index(slot, back - 1);
        co_await nodes_[node].exit(p, local_part(slot, back - 1));
    }
}

}  // namespace rwr::mutex
