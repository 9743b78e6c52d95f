// Native (std::atomic) K-process f-array counter: Jayanti's counter,
// counter/farray_protocol.inc compiled into inline functions over an 8-ary
// tree with no padding leaves. The simulated FArraySimCounter keeps a
// padded binary tree, whose exact counts are the reproduction's measured
// results.
//
// The leaf update is a CAS from `from` to `to`: each slot has one caller
// at a time, so only a caller that misjudges its own leaf (or shares its
// slot) sees it fail, which makes the move that AfLock's lines 31-40 make
// anyway its reader misuse check. equals_now(other) compares with a second
// counter as of one instant (AfLock's HelpWCS needs C[i] = W[i]).
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

#include "native/steps.hpp"

namespace rwr::native {

class FArrayCounter : private AtomicSteps {
   public:
    /// The size rule (shape_for) throws std::invalid_argument, before
    /// anything is allocated, unless 1 <= capacity <= kMaxCapacity.
    explicit FArrayCounter(std::uint32_t capacity)
        : shape_(shape_for(capacity)),
          nodes_(std::make_unique<Node[]>(shape_.nodes)) {}

    /// Moves `slot`'s leaf from `from` to `to` and refreshes its
    /// ancestors; the counter gains to - from. Returns false, writing
    /// nothing, when the leaf is not `from`. A slot >= capacity throws
    /// std::out_of_range before any access.
    [[nodiscard]] bool move(std::uint32_t slot, std::int32_t from,
                            std::int32_t to) {
        return move_leaf(ThisThread{}, slot, from, to);
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

    [[nodiscard]] std::int64_t read() const { return read_root(ThisThread{}); }

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

    [[nodiscard]] std::uint32_t capacity() const { return shape_.capacity; }

    /// Internal levels a move refreshes: ceil(log8 K), 0 at K = 1.
    [[nodiscard]] std::uint32_t height() const { return shape_.height; }

   private:
    // ---- The executor of counter/farray_protocol.inc ---------------------
    static constexpr std::uint32_t kFanIn = 8;
    static constexpr bool kPadded = false;

    struct alignas(64) Node {
        std::atomic<std::uint64_t> word{0};
    };
    static_assert(sizeof(Node) == 64 && alignof(Node) == 64,
                  "one tree node per cache line: leaves are single-writer "
                  "hot words and internal nodes are CASed by all slots; "
                  "packing them would false-share every add()");

    std::atomic<std::uint64_t>& word(std::uint32_t u) { return nodes_[u].word; }
    const std::atomic<std::uint64_t>& word(std::uint32_t u) const {
        return nodes_[u].word;
    }
    static bool set_leaf(Caller, std::atomic<std::uint64_t>& leaf,
                         std::int32_t from, std::int32_t to) {
        std::uint64_t expected = pack(0, from);
        return leaf.compare_exchange_strong(expected, pack(0, to));
    }

#define RWR_STEP
#define RWR_RETURN return
#include "counter/farray_protocol.inc"

    Shape shape_;
    std::unique_ptr<Node[]> nodes_;
};

}  // namespace rwr::native
