// Native (std::atomic) K-process f-array counter -- Jayanti's counter, the
// same version-stamped double-refresh algorithm as counter/sim_counter.hpp,
// compiled to real atomics over an 8-ary tree instead of a binary one.
//
// move(slot, from, to): CAS the slot's leaf from `from` to `to`, then
// double-refresh every ancestor (read node, read children, CAS
// <version+1, sum>). Wait-free, Θ(log K) steps. A leaf that is not `from`
// fails the CAS and nothing is written: each slot has one caller at a
// time, so only a caller that misjudges its own leaf (or shares its slot)
// sees the failure. add(slot, delta) is a move from the leaf's current
// value. read(): one load of the root. equals_now(other): compares with a
// second counter as of one instant (AfLock's HelpWCS needs C[i] = W[i]).
// A slot >= capacity throws std::out_of_range before any access.
//
// Shape: an implicit 8-ary heap in one array. Node u's children are
// 8u+1 ... 8u+8 and its parent is (u-1)/8. With 8^h the least power of 8
// >= K, the h internal levels take nodes [0, (8^h-1)/7) and the K leaves
// follow them, with no padding leaves; a refresh reads only the children
// the array holds. h = ceil(log8 K), and K = 1 is a lone leaf that is also
// the root.
//
// Why fan-in 8. With fan-in b a solo add makes 1 + ceil(log_b K) CASes
// (the leaf, then one refresh per level) and 2 + (b+2)*ceil(log_b K) steps
// (each level reads the node and b children, then CASes); in the CC model
// each step costs at most one RMR. Per log2 K, the steps are 4 at b = 2,
// 3.3 at b = 8 and 4.5 at b = 16, so 8 is the widest fan-in that never
// reads more than the binary tree when K is a power of 8, while the serial
// CASes -- each a locked RMW of about 15 ns on x86, which is what a solo
// add's time is made of -- drop by a factor of 3: a K = 8 group pays 2
// CASes per add instead of 4. The bound stays Θ(log K).
//
// The simulated FArraySimCounter stays binary on purpose: its exact step
// and RMR counts (E5's 2 + 4*log2 K, E1's rows, perfbench's goldens) are
// the reproduction's measured results and stay bit-identical. AfLock and
// AfSimLock compile one protocol text (core/af_protocol.inc), whose
// executors hand it this counter and the binary one respectively.
//
// Memory ordering: all operations use sequential consistency. These
// algorithms (and the paper's model) assume an SC memory system; on x86
// every update here is a locked CAS whatever its ordering, so SC costs
// nothing extra, and correctness under weaker orderings has not been
// analysed -- do not relax.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace rwr::native {

class FArrayCounter {
   public:
    /// 8^10. Up to it the tree has at most 10 internal levels, and every
    /// index of the complete 8-ary tree of that height fits in 32 bits.
    static constexpr std::uint32_t kMaxCapacity = std::uint32_t{1} << 30;

    /// Throws std::invalid_argument, before allocating, unless
    /// 1 <= capacity <= kMaxCapacity.
    explicit FArrayCounter(std::uint32_t capacity)
        : capacity_(validated(capacity)),
          height_(height_for(capacity)),
          first_leaf_(internal_nodes(capacity)),
          nodes_(std::make_unique<Node[]>(first_leaf_ + capacity_)) {
        for (std::uint32_t i = 0; i < first_leaf_ + capacity_; ++i) {
            nodes_[i].word.store(0, std::memory_order_relaxed);
        }
    }

    /// Moves `slot`'s leaf from `from` to `to` and refreshes its
    /// ancestors; the counter gains to - from. Returns false, writing
    /// nothing, when the leaf is not `from`.
    [[nodiscard]] bool move(std::uint32_t slot, std::int32_t from,
                            std::int32_t to) {
        const std::uint32_t leaf = leaf_of(slot);
        std::uint64_t expected = pack(0, from);
        if (!nodes_[leaf].word.compare_exchange_strong(expected,
                                                       pack(0, to))) {
            return false;
        }
        for (std::uint32_t u = leaf; u != 0;) {  // K == 1: leaf is root.
            u = (u - 1) / kFanIn;
            if (!refresh(u)) {
                refresh(u);  // Double refresh; outcome irrelevant.
            }
        }
        return true;
    }

    /// Adds `delta` on behalf of `slot`. Throws std::logic_error if
    /// another caller changes the slot's leaf meanwhile: one concurrent
    /// caller per slot.
    void add(std::uint32_t slot, std::int64_t delta) {
        const std::int32_t cur = value_of(nodes_[leaf_of(slot)].word.load());
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

    /// Internal levels a move refreshes: ceil(log8 K), 0 at K = 1.
    [[nodiscard]] std::uint32_t height() const { return height_; }

    /// height() of a counter with `capacity` slots, without building it.
    static constexpr std::uint32_t height_for(std::uint32_t capacity) {
        std::uint32_t h = 0;
        for (std::uint64_t span = 1; span < capacity; span *= kFanIn) {
            ++h;
        }
        return h;
    }

   private:
    static constexpr std::uint32_t kFanIn = 8;

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

    /// Nodes above the leaves: 1 + 8 + ... + 8^(h-1) at height h.
    static constexpr std::uint32_t internal_nodes(std::uint32_t capacity) {
        std::uint64_t nodes = 0;
        for (std::uint64_t span = 1; span < capacity; span *= kFanIn) {
            nodes += span;
        }
        return static_cast<std::uint32_t>(nodes);
    }

    static std::uint32_t validated(std::uint32_t capacity) {
        if (capacity == 0 || capacity > kMaxCapacity) {
            throw std::invalid_argument(
                "FArrayCounter: capacity must be in [1, 2^30]");
        }
        return capacity;
    }

    std::uint32_t leaf_of(std::uint32_t slot) const {
        if (slot >= capacity_) {
            throw std::out_of_range("FArrayCounter: slot >= capacity");
        }
        return first_leaf_ + slot;
    }

    bool refresh(std::uint32_t u) {
        std::uint64_t old = nodes_[u].word.load();
        const std::uint32_t first = kFanIn * u + 1;
        const std::uint32_t last =
            std::min(first + kFanIn, first_leaf_ + capacity_);
        std::int64_t sum = 0;
        for (std::uint32_t c = first; c < last; ++c) {
            sum += value_of(nodes_[c].word.load());
        }
        const std::uint64_t desired =
            pack(version_of(old) + 1, static_cast<std::int32_t>(sum));
        return nodes_[u].word.compare_exchange_strong(old, desired);
    }

    std::uint32_t capacity_;
    std::uint32_t height_;
    std::uint32_t first_leaf_;
    std::unique_ptr<Node[]> nodes_;
};

}  // namespace rwr::native
