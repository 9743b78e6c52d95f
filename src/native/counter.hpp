// Native (std::atomic) K-process f-array counter -- the same Jayanti-style
// tree as counter/sim_counter.hpp, compiled to real atomics.
//
// move(slot, from, to): CAS the slot's leaf from `from` to `to`, then
// double-refresh every ancestor (read node, read children, CAS
// <version+1, sum>). Wait-free, Θ(log K) steps. A leaf that is not `from`
// fails the CAS and nothing is written: each slot has one caller at a
// time, so only a caller that misjudges its own leaf (or shares its slot)
// sees the failure. add(slot, delta) is a move from the leaf's current
// value. read(): one load of the root. equals_now(other): compares with a
// second counter as of one instant (AfLock's HelpWCS needs C[i] = W[i]).
//
// Memory ordering: all operations use sequential consistency. These
// algorithms (and the paper's model) assume an SC memory system; on x86
// every update here is a locked CAS whatever its ordering, so SC costs
// nothing extra, and correctness under weaker orderings has not been
// analysed -- do not relax.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace rwr::native {

class FArrayCounter {
   public:
    explicit FArrayCounter(std::uint32_t capacity)
        : capacity_(capacity),
          num_leaves_(capacity <= 1 ? 1 : std::bit_ceil(capacity)),
          num_internal_(num_leaves_ - 1),
          nodes_(std::make_unique<Node[]>(num_internal_ + num_leaves_)) {
        if (capacity == 0) {
            throw std::invalid_argument("FArrayCounter: capacity must be >= 1");
        }
        for (std::uint32_t i = 0; i < num_internal_ + num_leaves_; ++i) {
            nodes_[i].word.store(0, std::memory_order_relaxed);
        }
    }

    /// Moves `slot`'s leaf (slot < capacity) from `from` to `to` and
    /// refreshes its ancestors; the counter gains to - from. Returns false,
    /// writing nothing, when the leaf is not `from`.
    [[nodiscard]] bool move(std::uint32_t slot, std::int32_t from,
                            std::int32_t to) {
        const std::uint32_t leaf = num_internal_ + slot;
        std::uint64_t expected = pack(0, from);
        if (!nodes_[leaf].word.compare_exchange_strong(expected,
                                                       pack(0, to))) {
            return false;
        }
        for (std::uint32_t u = leaf; u != 0;) {  // K == 1: leaf is root.
            u = (u - 1) / 2;
            if (!refresh(u)) {
                refresh(u);  // Double refresh; outcome irrelevant.
            }
        }
        return true;
    }

    /// Adds `delta` on behalf of `slot` (< capacity). Throws
    /// std::logic_error if another caller changes the slot's leaf
    /// meanwhile: one concurrent caller per slot.
    void add(std::uint32_t slot, std::int64_t delta) {
        const std::int32_t cur =
            value_of(nodes_[num_internal_ + slot].word.load());
        if (!move(slot, cur, static_cast<std::int32_t>(cur + delta))) {
            throw std::logic_error(
                "FArrayCounter: two concurrent callers on one slot");
        }
    }

    [[nodiscard]] std::int64_t read() const {
        return value_of(nodes_[0].word.load());
    }

    /// True when this count did not change around a read of `other` and
    /// equals it at that instant; false otherwise. The root is read before
    /// and after, and for K > 1 every change of the root bumps its
    /// version. (At K = 1 the root is a leaf, so a change and its undoing
    /// in between go unseen; only a caller that owns the one slot may rely
    /// on the answer there.)
    [[nodiscard]] bool equals_now(const FArrayCounter& other) const {
        const std::uint64_t before = nodes_[0].word.load();
        const std::int64_t theirs = other.read();
        return nodes_[0].word.load() == before && value_of(before) == theirs;
    }

    [[nodiscard]] std::uint32_t capacity() const { return capacity_; }

   private:
    struct alignas(64) Node {
        std::atomic<std::uint64_t> word;
    };
    static_assert(sizeof(Node) == 64 && alignof(Node) == 64,
                  "one tree node per cache line: leaves are single-writer "
                  "hot words and internal nodes are CASed by all slots; "
                  "packing them would false-share every add()");

    static constexpr std::uint64_t pack(std::uint32_t version,
                                        std::int32_t value) {
        return (static_cast<std::uint64_t>(version) << 32) |
               static_cast<std::uint32_t>(value);
    }
    static constexpr std::int32_t value_of(std::uint64_t w) {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
    }
    static constexpr std::uint32_t version_of(std::uint64_t w) {
        return static_cast<std::uint32_t>(w >> 32);
    }

    bool refresh(std::uint32_t u) {
        std::uint64_t old = nodes_[u].word.load();
        const std::int64_t left = value_of(nodes_[2 * u + 1].word.load());
        const std::int64_t right = value_of(nodes_[2 * u + 2].word.load());
        const std::uint64_t desired =
            pack(version_of(old) + 1,
                 static_cast<std::int32_t>(left + right));
        return nodes_[u].word.compare_exchange_strong(old, desired);
    }

    std::uint32_t capacity_;
    std::uint32_t num_leaves_;
    std::uint32_t num_internal_;
    std::unique_ptr<Node[]> nodes_;
};

}  // namespace rwr::native
