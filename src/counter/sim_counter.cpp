#include "counter/sim_counter.hpp"

#include <stdexcept>

namespace rwr::counter {

FArraySimCounter::FArraySimCounter(Memory& mem, const std::string& name,
                                   std::uint32_t capacity,
                                   std::optional<ProcId> owner_base)
    : shape_(shape_for(capacity)) {
    vars_.reserve(shape_.nodes);
    for (std::uint32_t i = 0; i < shape_.nodes; ++i) {
        const bool leaf = i >= shape_.first_leaf;
        ProcId owner = Memory::kNoOwner;
        if (leaf && owner_base.has_value() &&
            i - shape_.first_leaf < capacity) {
            owner = *owner_base + (i - shape_.first_leaf);
        }
        vars_.push_back(mem.allocate(
            name + (leaf ? ".leaf" : ".node") + std::to_string(i), 0, owner));
    }
}

sim::SimTask<bool> FArraySimCounter::set_leaf(sim::Process& p, VarId leaf,
                                              std::int32_t from,
                                              std::int32_t to) {
    const Word cur = co_await p.read(leaf);
    const std::int64_t next = std::int64_t{value_of(cur)} + to - from;
    co_await p.write(leaf, pack(0, static_cast<std::int32_t>(next)));
    co_return true;
}

std::int64_t FArraySimCounter::peek_exact(const Memory& mem) const {
    std::int64_t sum = 0;
    for (std::uint32_t i = 0; i < shape_.capacity; ++i) {
        sum += value_of(mem.peek(vars_[shape_.first_leaf + i]));
    }
    return sum;
}

NaiveSimCounter::NaiveSimCounter(Memory& mem, const std::string& name)
    : var_(mem.allocate(name, 0)) {}

sim::SimTask<void> NaiveSimCounter::add(sim::Process& p, std::uint32_t slot,
                                        std::int64_t delta) {
    (void)slot;
    for (;;) {
        const Word cur = co_await p.read(var_);
        const Word next = static_cast<Word>(
            static_cast<std::int64_t>(cur) + delta);
        if (co_await p.cas(var_, cur, next) == cur) {
            co_return;
        }
    }
}

sim::SimTask<std::int64_t> NaiveSimCounter::read(sim::Process& p) {
    co_return static_cast<std::int64_t>(co_await p.read(var_));
}

std::int64_t NaiveSimCounter::peek_exact(const Memory& mem) const {
    return static_cast<std::int64_t>(mem.peek(var_));
}

}  // namespace rwr::counter
