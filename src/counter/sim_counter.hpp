// K-process linearizable counters for the simulator.
//
// FArraySimCounter is Jayanti's f-array counter, counter/farray_protocol.inc
// compiled into simulator coroutines. It keeps the shape the reproduction's
// measured step and RMR counts come from (E5's 2 + 4*log2 K per solo add,
// E1's rows, perfbench's goldens): a binary tree padded to a power of two,
// and a leaf updated by a read and then a write, which is safe because only
// its slot's caller writes it.
//
// NaiveSimCounter is the baseline: one word, CAS-retry add. O(1) steps per
// attempt, but unboundedly many attempts under adversarial scheduling --
// exactly the behaviour the E5 bench contrasts against the f-array.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/steps.hpp"
#include "sim/task.hpp"

namespace rwr::counter {

class FArraySimCounter : private sim::SimSteps {
   public:
    /// Allocates the tree from `mem`. `capacity` = K, the number of
    /// distinct process slots that may concurrently add; the size rule
    /// (shape_for) throws before anything is allocated. If `owner_base` is
    /// set, leaf `s` is homed (for the DSM model) at process
    /// `*owner_base + s` -- slot owners access their own leaf locally.
    /// Internal nodes are contended by the whole group and stay unowned.
    FArraySimCounter(Memory& mem, const std::string& name,
                     std::uint32_t capacity,
                     std::optional<ProcId> owner_base = std::nullopt);

    /// Adds `delta` on behalf of `slot`; each concurrent caller must use a
    /// distinct slot, and a slot >= capacity throws std::out_of_range.
    /// Θ(log K) shared steps. True: a simulated leaf update cannot fail.
    sim::SimTask<bool> add(sim::Process& p, std::uint32_t slot,
                           std::int64_t delta) {
        return move_leaf(p, slot, 0, static_cast<std::int32_t>(delta));
    }

    /// Returns the current count. One shared step.
    sim::SimTask<std::int64_t> read(sim::Process& p) const {
        return read_root(p);
    }

    /// Test-only: non-simulated exact sum of all leaves.
    [[nodiscard]] std::int64_t peek_exact(const Memory& mem) const;
    /// Test-only: root value as read() would return it.
    [[nodiscard]] std::int64_t peek_root(const Memory& mem) const {
        return value_of(mem.peek(vars_[0]));
    }

    [[nodiscard]] std::uint32_t capacity() const { return shape_.capacity; }

   private:
    // ---- The executor of counter/farray_protocol.inc ---------------------
    static constexpr std::uint32_t kFanIn = 2;
    static constexpr bool kPadded = true;

    [[nodiscard]] VarId word(std::uint32_t u) const { return vars_[u]; }
    static sim::SimTask<bool> set_leaf(sim::Process& p, VarId leaf,
                                       std::int32_t from, std::int32_t to);

#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "counter/farray_protocol.inc"

    Shape shape_;
    /// Node u's variable, named "<name>.node<u>" or "<name>.leaf<u>".
    std::vector<VarId> vars_;
};

class NaiveSimCounter {
   public:
    NaiveSimCounter(Memory& mem, const std::string& name);

    sim::SimTask<void> add(sim::Process& p, std::uint32_t slot,
                           std::int64_t delta);
    sim::SimTask<std::int64_t> read(sim::Process& p);

    [[nodiscard]] std::int64_t peek_exact(const Memory& mem) const;

   private:
    VarId var_;
};

}  // namespace rwr::counter
