#include "mutex/sim_mutex.hpp"

#include <bit>
#include <stdexcept>

namespace rwr::mutex {

TournamentSimMutex::TournamentSimMutex(Memory& mem, const std::string& name,
                                       std::uint32_t m)
    : shape_(shape_for(m)) {
    nodes_.reserve(shape_.leaves - 1);  // None when m == 1.
    for (std::uint32_t i = 0; i + 1 < shape_.leaves; ++i) {
        Node n;
        n.flag[0] = mem.allocate(name + ".n" + std::to_string(i) + ".flag0", 0);
        n.flag[1] = mem.allocate(name + ".n" + std::to_string(i) + ".flag1", 0);
        n.victim = mem.allocate(name + ".n" + std::to_string(i) + ".victim", 0);
        nodes_.push_back(n);
    }
}

sim::SimTask<EnterResult> TournamentSimMutex::enter_abortable(
    sim::Process& p, std::uint32_t slot, AbortControl ctl) {
    Attempt a{ctl, p.stats().total_steps()};
    const bool won = co_await climb(p, a, slot);
    co_return won ? EnterResult::Acquired : EnterResult::Aborted;
}

sim::SimTask<bool> TournamentSimMutex::wait_turn(sim::Process& p, Attempt& a,
                                                 std::uint32_t n,
                                                 std::uint32_t side) {
    // The tree text's header says when this gives up: once the climb's own
    // steps reach the patience, checked before each Peterson test.
    for (;;) {
        if (p.stats().total_steps() - a.start >= a.ctl.patience) {
            co_return false;
        }
        const bool go = co_await may_enter(p, n, side);
        if (go) {
            co_return true;
        }
    }
}

YaTournamentSimMutex::YaTournamentSimMutex(Memory& mem,
                                           const std::string& name,
                                           std::uint32_t m,
                                           std::optional<ProcId> owner_base)
    : m_(m),
      num_leaves_(m <= 1 ? 1 : std::bit_ceil(m)),
      levels_(static_cast<std::uint32_t>(std::bit_width(num_leaves_) - 1)) {
    if (m == 0) {
        throw std::invalid_argument("YaTournamentSimMutex: m must be >= 1");
    }
    const std::uint32_t num_nodes = num_leaves_ - 1;  // 0 when m == 1.
    nodes_.reserve(num_nodes);
    for (std::uint32_t i = 0; i < num_nodes; ++i) {
        Node n;
        n.comp[0] = mem.allocate(name + ".n" + std::to_string(i) + ".c0", 0);
        n.comp[1] = mem.allocate(name + ".n" + std::to_string(i) + ".c1", 0);
        n.turn = mem.allocate(name + ".n" + std::to_string(i) + ".turn", 0);
        nodes_.push_back(n);
    }
    // One spin variable per (slot, level), homed at its slot's process:
    // only slot s ever spins on spin_of(s, lvl), so this is the placement
    // that makes every busy-wait DSM-local.
    spin_.reserve(std::size_t{m_} * levels_);
    for (std::uint32_t s = 0; s < m_; ++s) {
        const ProcId owner =
            owner_base.has_value() ? *owner_base + s : Memory::kNoOwner;
        for (std::uint32_t lvl = 0; lvl < levels_; ++lvl) {
            spin_.push_back(mem.allocate(name + ".p" + std::to_string(s) +
                                             ".l" + std::to_string(lvl),
                                         0, owner));
        }
    }
}

sim::SimTask<void> YaTournamentSimMutex::node_enter(sim::Process& p,
                                                    std::uint32_t n, Word side,
                                                    std::uint32_t slot,
                                                    std::uint32_t lvl) {
    const Node& node = nodes_[n];
    const Word self = slot + 1;
    co_await p.write(node.comp[side], self);
    co_await p.write(node.turn, self);
    co_await p.write(spin_of(slot, lvl), 0);
    const Word rival = co_await p.read(node.comp[1 - side]);
    if (rival == 0) {
        co_return;  // Uncontended: straight through.
    }
    const Word turn = co_await p.read(node.turn);
    if (turn != self) {
        co_return;  // Rival wrote turn after us: we win this round.
    }
    // Nudge the rival past its first wait (it may have parked before we
    // registered), then wait our own turn out.
    const Word rv = co_await p.read(spin_of(rival - 1, lvl));
    if (rv == 0) {
        co_await p.write(spin_of(rival - 1, lvl), 1);
    }
    for (;;) {  // Local spin: only the rival writes our variable.
        const Word w = co_await p.read(spin_of(slot, lvl));
        if (w >= 1) {
            break;
        }
    }
    const Word turn2 = co_await p.read(node.turn);
    if (turn2 != self) {
        co_return;
    }
    for (;;) {  // Still the victim: wait for the rival's exit grant.
        const Word w = co_await p.read(spin_of(slot, lvl));
        if (w == 2) {
            break;
        }
    }
}

sim::SimTask<void> YaTournamentSimMutex::node_exit(sim::Process& p,
                                                   std::uint32_t n, Word side,
                                                   std::uint32_t slot,
                                                   std::uint32_t lvl) {
    const Node& node = nodes_[n];
    co_await p.write(node.comp[side], 0);
    const Word turn = co_await p.read(node.turn);
    if (turn != slot + 1) {
        // The rival registered after us and is (or will be) the victim:
        // grant it. Writing 2 unconditionally is safe -- the slot's owner
        // resets it to 0 at the start of each node entry.
        co_await p.write(spin_of(turn - 1, lvl), 2);
    }
}

sim::SimTask<void> YaTournamentSimMutex::enter(sim::Process& p,
                                               std::uint32_t slot) {
    if (slot >= m_) {
        throw std::invalid_argument("YaTournamentSimMutex::enter: bad slot");
    }
    std::uint32_t pos = (num_leaves_ - 1) + slot;
    std::uint32_t lvl = 0;
    while (pos != 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        const Word side = (pos == 2 * parent + 1) ? 0 : 1;
        co_await node_enter(p, parent, side, slot, lvl);
        pos = parent;
        ++lvl;
    }
}

sim::SimTask<void> YaTournamentSimMutex::exit(sim::Process& p,
                                              std::uint32_t slot) {
    if (slot >= m_) {
        throw std::invalid_argument("YaTournamentSimMutex::exit: bad slot");
    }
    // Release top-down (reverse of acquisition order), tracking the level
    // each node was entered at so the exit signals the right spin word.
    std::uint32_t path[32];
    std::uint32_t depth = 0;
    std::uint32_t pos = (num_leaves_ - 1) + slot;
    while (pos != 0) {
        path[depth++] = pos;
        pos = (pos - 1) / 2;
    }
    for (std::uint32_t i = depth; i-- > 0;) {
        const std::uint32_t child = path[i];
        const std::uint32_t parent = (child - 1) / 2;
        const Word side = (child == 2 * parent + 1) ? 0 : 1;
        co_await node_exit(p, parent, side, slot, i);
    }
}

McsSimMutex::McsSimMutex(Memory& mem, const std::string& name,
                         std::uint32_t m, std::optional<ProcId> owner_base) {
    if (m == 0) {
        throw std::invalid_argument("McsSimMutex: m must be >= 1");
    }
    tail_ = mem.allocate(
        name + ".tail", 0,
        owner_base.has_value() ? *owner_base : Memory::kNoOwner);
    locked_.reserve(m);
    next_.reserve(m);
    for (std::uint32_t s = 0; s < m; ++s) {
        const ProcId owner =
            owner_base.has_value() ? *owner_base + s : Memory::kNoOwner;
        locked_.push_back(
            mem.allocate(name + ".locked" + std::to_string(s), 0, owner));
        next_.push_back(
            mem.allocate(name + ".next" + std::to_string(s), 0, owner));
    }
}

sim::SimTask<void> McsSimMutex::enter(sim::Process& p, std::uint32_t slot) {
    if (slot >= locked_.size()) {
        throw std::invalid_argument("McsSimMutex::enter: bad slot");
    }
    co_await p.write(next_[slot], 0);
    co_await p.write(locked_[slot], 1);
    // swap(tail, slot+1) via CAS retry.
    Word pred;
    for (;;) {
        pred = co_await p.read(tail_);
        const Word prior = co_await p.cas(tail_, pred, slot + 1);
        if (prior == pred) {
            break;
        }
    }
    if (pred != 0) {
        co_await p.write(next_[pred - 1], slot + 1);
        for (;;) {  // Local spin on OUR node; predecessor clears it.
            const Word l = co_await p.read(locked_[slot]);
            if (l == 0) {
                break;
            }
        }
    }
}

sim::SimTask<void> McsSimMutex::exit(sim::Process& p, std::uint32_t slot) {
    if (slot >= locked_.size()) {
        throw std::invalid_argument("McsSimMutex::exit: bad slot");
    }
    Word nxt = co_await p.read(next_[slot]);
    if (nxt == 0) {
        // No visible successor: try to swing the tail back to null.
        const Word prior = co_await p.cas(tail_, slot + 1, 0);
        if (prior == slot + 1) {
            co_return;
        }
        // A successor swapped the tail but hasn't linked yet: await it.
        for (;;) {
            nxt = co_await p.read(next_[slot]);
            if (nxt != 0) {
                break;
            }
        }
    }
    co_await p.write(locked_[nxt - 1], 0);  // Hand the lock over.
}

TasSimMutex::TasSimMutex(Memory& mem, const std::string& name)
    : locked_(mem.allocate(name + ".locked", 0)) {}

sim::SimTask<void> TasSimMutex::enter(sim::Process& p, std::uint32_t slot) {
    (void)slot;
    // Test-and-test-and-set: spin on a read, then attempt the CAS.
    // (Deliberately sequential statements: GCC 12 miscompiles co_await
    // inside short-circuit operators.)
    for (;;) {
        const Word observed = co_await p.read(locked_);
        if (observed != 0) {
            continue;
        }
        const Word prior = co_await p.cas(locked_, 0, 1);
        if (prior == 0) {
            co_return;
        }
    }
}

sim::SimTask<void> TasSimMutex::exit(sim::Process& p, std::uint32_t slot) {
    (void)slot;
    co_await p.write(locked_, 0);
}

}  // namespace rwr::mutex
