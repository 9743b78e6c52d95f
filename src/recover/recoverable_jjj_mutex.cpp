#include "recover/recoverable_jjj_mutex.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rwr::recover {

RecoverableJJJMutex::RecoverableJJJMutex(Memory& mem, const std::string& name,
                                         std::uint32_t m,
                                         std::optional<ProcId> owner_base)
    : m_(m), owner_base_(owner_base) {
    if (m == 0) {
        throw std::invalid_argument("RecoverableJJJMutex: m must be >= 1");
    }
    // The sub-logarithmic regime: arity Theta(log m) makes the height
    // ceil(log m / log delta) = O(log m / log log m).
    delta_ = std::max<std::uint32_t>(2, std::bit_width(std::max(m, 2u) - 1));

    // Level sizes bottom-up; always at least one level so m <= delta is a
    // single node.
    std::uint32_t count = (m + delta_ - 1) / delta_;
    if (count == 0) {
        count = 1;
    }
    for (;;) {
        level_base_.push_back(static_cast<std::uint32_t>(nodes_.size()));
        level_count_.push_back(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::string nn = name + ".l" +
                                   std::to_string(level_base_.size() - 1) +
                                   ".n" + std::to_string(i);
            Node nd;
            nd.tail = mem.allocate(nn + ".tail", 0);
            nd.obs.reserve(delta_);
            nd.tkt.reserve(delta_);
            nd.nstate.reserve(delta_);
            for (std::uint32_t q = 0; q < delta_; ++q) {
                // DSM mode: a leaf port is exclusive to one slot, so its
                // words live in that slot's segment. Upper-level ports are
                // shared (serially) and stay unhomed; every access to them
                // is O(1) per passage, never a spin.
                const std::uint32_t leaf_slot = i * delta_ + q;
                const ProcId owner =
                    owner_base.has_value() && level_base_.size() == 1 &&
                            leaf_slot < m
                        ? *owner_base + leaf_slot
                        : Memory::kNoOwner;
                nd.obs.push_back(
                    mem.allocate(nn + ".obs" + std::to_string(q), 0, owner));
                nd.tkt.push_back(
                    mem.allocate(nn + ".tkt" + std::to_string(q), 0, owner));
                nd.nstate.push_back(mem.allocate(
                    nn + ".nstate" + std::to_string(q), kNIdle, owner));
            }
            nd.grant.reserve(grant_slots());
            for (std::uint32_t s = 0; s < grant_slots(); ++s) {
                // grant[0] = 1: ticket 0 starts granted.
                nd.grant.push_back(mem.allocate(
                    nn + ".grant" + std::to_string(s), s == 0 ? 1 : 0));
            }
            if (owner_base.has_value()) {
                nd.wproc.reserve(grant_slots());
                for (std::uint32_t s = 0; s < grant_slots(); ++s) {
                    nd.wproc.push_back(
                        mem.allocate(nn + ".wproc" + std::to_string(s), 0));
                }
            }
            nodes_.push_back(std::move(nd));
        }
        if (count == 1) {
            break;
        }
        count = (count + delta_ - 1) / delta_;
    }
    height_ = static_cast<std::uint32_t>(level_count_.size());

    stage_.reserve(m);
    for (std::uint32_t s = 0; s < m; ++s) {
        stage_.push_back(
            mem.allocate(name + ".stage" + std::to_string(s), kIdle));
    }
    if (owner_base_.has_value()) {
        wcell_.reserve(m);
        for (std::uint32_t s = 0; s < m; ++s) {
            wcell_.push_back(mem.allocate(name + ".wcell" + std::to_string(s),
                                          0, *owner_base_ + s));
        }
    }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
RecoverableJJJMutex::path_of(std::uint32_t slot) const {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> path;
    path.reserve(height_);
    std::uint32_t index = slot;  // Competitor index at the current level.
    for (std::uint32_t level = 0; level < height_; ++level) {
        path.emplace_back(level_base_[level] + index / delta_, index % delta_);
        index /= delta_;
    }
    return path;
}

// ---- Node protocol -------------------------------------------------------

sim::SimTask<void> RecoverableJJJMutex::node_await_grant(sim::Process& p,
                                                         const Node& nd,
                                                         std::uint32_t port,
                                                         std::uint32_t slot,
                                                         Word t) {
    const VarId grant_var = nd.grant[t % grant_slots()];
    if (!owner_base_.has_value()) {
        // Exact-value spin on this ticket's own grant slot: at most one
        // write lands here while we wait (the unreleased window is < S
        // wide), so the CC cost is one miss + one invalidation regardless
        // of delta.
        for (;;) {
            const Word g = co_await p.read(grant_var);
            if (g == t + 1) {
                break;
            }
        }
    } else {
        // DSM mode: wait on our own wake cell, not the grant word (see
        // header). The grant stays authoritative; every re-check of it is
        // preceded by either registering or a wake, so the remote accesses
        // per genuine wake are O(1).
        const VarId wake = wcell_[slot];
        const VarId reg = nd.wproc[t % grant_slots()];
        bool registered = false;
        for (;;) {
            Word g = co_await p.read(grant_var);
            if (g == t + 1) {
                break;
            }
            const Word snap = co_await p.read(wake);  // Local.
            co_await p.write(reg, slot + 1);          // Register, ...
            registered = true;
            g = co_await p.read(grant_var);           // ... then re-check.
            if (g == t + 1) {
                break;
            }
            for (;;) {  // Local spin: the wake cell is homed here.
                const Word w = co_await p.read(wake);
                if (w != snap) {
                    break;
                }
            }
        }
        if (registered) {
            // Retire the registration so later releases of this grant slot
            // don't keep bumping us. CAS, never a blind write: the waiter
            // for ticket t + S may have registered here already.
            co_await p.cas(reg, slot + 1, 0);
        }
    }
    co_await p.write(nd.nstate[port], kNHolder);
}

sim::SimTask<void> RecoverableJJJMutex::node_take_fresh(sim::Process& p,
                                                        const Node& nd,
                                                        std::uint32_t port,
                                                        std::uint32_t slot) {
    Word t = 0;
    for (;;) {
        const Word cur = co_await p.read(nd.tail);
        // The certificate write: if our CAS lands and we then crash, this
        // value frozen in the successor's obs (or still in tail) is how
        // recovery proves the ticket is ours.
        co_await p.write(nd.obs[port], cur);
        t = next_ticket_of(cur);
        const Word prior = co_await p.cas(nd.tail, cur, pack(t + 1, port));
        if (prior == cur) {
            break;
        }
    }
    co_await p.write(nd.tkt[port], t + 1);
    co_await node_await_grant(p, nd, port, slot, t);
}

sim::SimTask<void> RecoverableJJJMutex::node_grant_next(sim::Process& p,
                                                        const Node& nd,
                                                        Word t) {
    // Guarded hand-off of ticket t+1. While the slot is < t+2 nobody else
    // writes it (the next writer transitively needs this very grant), and
    // once >= t+2 our write already landed in a previous run -- re-writing
    // could clobber a grant S tickets newer.
    const VarId slot_var = nd.grant[(t + 1) % grant_slots()];
    const Word cur = co_await p.read(slot_var);
    if (cur < t + 2) {
        co_await p.write(slot_var, t + 2);
    }
    if (owner_base_.has_value()) {
        // Wake whoever is registered for this grant slot -- even when the
        // guard said the grant already landed: the run that wrote it may
        // have crashed before this point. Duplicate or stale bumps cost
        // the target one local re-check; a miss is impossible (the
        // grant write above precedes this read, see header).
        const Word w = co_await p.read(nd.wproc[(t + 1) % grant_slots()]);
        if (w != 0) {
            co_await p.fetch_add(wcell_[w - 1], 1);
        }
    }
}

sim::SimTask<void> RecoverableJJJMutex::node_enter(sim::Process& p,
                                                   const Node& nd,
                                                   std::uint32_t port,
                                                   std::uint32_t slot) {
    // The Trying mark must precede any tail work: recovery trusts
    // nstate == Idle to mean "no ticket could exist here".
    co_await p.write(nd.nstate[port], kNTrying);
    co_await node_take_fresh(p, nd, port, slot);
}

sim::SimTask<void> RecoverableJJJMutex::node_release(sim::Process& p,
                                                     const Node& nd,
                                                     std::uint32_t port) {
    co_await p.write(nd.nstate[port], kNReleasing);
    const Word t1 = co_await p.read(nd.tkt[port]);
    co_await node_grant_next(p, nd, t1 - 1);
    co_await p.write(nd.tkt[port], 0);
    co_await p.write(nd.nstate[port], kNIdle);
}

sim::SimTask<void> RecoverableJJJMutex::node_recover_trying(
    sim::Process& p, const Node& nd, std::uint32_t port, std::uint32_t slot) {
    const Word t1 = co_await p.read(nd.tkt[port]);
    if (t1 != 0) {
        // Ticket persisted before the crash: just resume the spin (DSM
        // mode re-registers in wproc -- the registration is advisory, so
        // losing it to the crash was harmless).
        co_await node_await_grant(p, nd, port, slot, t1 - 1);
        co_return;
    }
    // Crash inside the certified-CAS loop. Scan tail + every obs[] for a
    // value naming us as taker; adopt the (unique, see header) unreleased
    // one. Released matches are stale certificates from completed passages.
    Word adopted = 0;  // ticket + 1; 0 = none.
    for (std::uint32_t src = 0; src <= delta_ && adopted == 0; ++src) {
        const VarId var = src == 0 ? nd.tail : nd.obs[src - 1];
        const Word v = co_await p.read(var);
        if (taker_of(v) != port) {
            continue;
        }
        const Word u = next_ticket_of(v) - 1;  // The ticket v certifies.
        const Word g = co_await p.read(nd.grant[(u + 1) % grant_slots()]);
        if (g < u + 2) {
            adopted = u + 1;
        }
    }
    if (adopted != 0) {
        co_await p.write(nd.tkt[port], adopted);
        co_await node_await_grant(p, nd, port, slot, adopted - 1);
        co_return;
    }
    // No certificate: the CAS never landed. Start the loop over.
    co_await node_take_fresh(p, nd, port, slot);
}

sim::SimTask<void> RecoverableJJJMutex::node_finish_release(
    sim::Process& p, const Node& nd, std::uint32_t port) {
    const Word ns = co_await p.read(nd.nstate[port]);
    if (ns == kNIdle) {
        co_return;  // This node's release already completed.
    }
    if (ns == kNHolder) {
        co_await node_release(p, nd, port);
        co_return;
    }
    if (ns == kNTrying) {
        // Unreachable from the whole-lock stage machine (exit recovery
        // only runs once every node was Held); granting from here could
        // hand off a ticket that was never granted to us.
        throw std::logic_error(
            "RecoverableJJJMutex: node Trying during exit recovery");
    }
    // kNReleasing: the grant may or may not have landed; node_grant_next's
    // guard makes re-running safe. tkt == 0 means we died after clearing
    // it, i.e. past the grant.
    const Word t1 = co_await p.read(nd.tkt[port]);
    if (t1 != 0) {
        co_await node_grant_next(p, nd, t1 - 1);
        co_await p.write(nd.tkt[port], 0);
    }
    co_await p.write(nd.nstate[port], kNIdle);
}

// ---- Whole-lock passages -------------------------------------------------

sim::SimTask<void> RecoverableJJJMutex::enter(sim::Process& p,
                                              std::uint32_t slot) {
    if (slot >= m_) {
        throw std::invalid_argument("RecoverableJJJMutex::enter: bad slot");
    }
    co_await p.write(stage_[slot], kTrying);
    for (const auto& [node, port] : path_of(slot)) {
        co_await node_enter(p, nodes_[node], port, slot);
    }
    co_await p.write(stage_[slot], kInCS);
}

sim::SimTask<void> RecoverableJJJMutex::exit_slot(sim::Process& p,
                                                  std::uint32_t slot) {
    if (slot >= m_) {
        throw std::invalid_argument("RecoverableJJJMutex::exit: bad slot");
    }
    co_await p.write(stage_[slot], kExiting);
    // Root to leaf: reverse acquisition order, like the tournament's
    // descend_release.
    const auto path = path_of(slot);
    for (std::size_t i = path.size(); i-- > 0;) {
        co_await node_release(p, nodes_[path[i].first], path[i].second);
    }
    co_await p.write(stage_[slot], kIdle);
}

sim::SimTask<void> RecoverableJJJMutex::recover_slot(sim::Process& p,
                                                     std::uint32_t slot,
                                                     RecoveryOutcome& out) {
    if (slot >= m_) {
        throw std::invalid_argument("RecoverableJJJMutex::recover: bad slot");
    }
    const Word s = co_await p.read(stage_[slot]);
    if (s == kIdle) {
        out = RecoveryOutcome::None;
        co_return;
    }
    if (s == kInCS) {
        // Critical-Section Reentry: every node on the path is still Held
        // by us; O(1) recovery.
        out = RecoveryOutcome::InCriticalSection;
        co_return;
    }
    const auto path = path_of(slot);
    if (s == kTrying) {
        // Resume the ascent bottom-up, dispatching per node on how far the
        // crashed attempt got there.
        for (const auto& [node, port] : path) {
            const Node& nd = nodes_[node];
            const Word ns = co_await p.read(nd.nstate[port]);
            if (ns == kNHolder) {
                continue;  // Won before the crash; keep.
            }
            if (ns == kNTrying) {
                co_await node_recover_trying(p, nd, port, slot);
                continue;
            }
            if (ns == kNReleasing) {
                // Unreachable (a previous exit completes every node's
                // release before the stage returns to Idle), but finishing
                // the release and re-entering is safe either way.
                co_await node_finish_release(p, nd, port);
            }
            co_await node_enter(p, nd, port, slot);
        }
        co_await p.write(stage_[slot], kInCS);
        out = RecoveryOutcome::InCriticalSection;
        co_return;
    }
    // kExiting: the release ran root-to-leaf, so the EXCLUSIVE leaf port
    // tells how far it got. While the leaf is still Held, every subtree
    // peer is blocked at it, so any leftover at our shared upper ports is
    // ours to finish (top-down, matching release order). But once the
    // leaf's grant has been handed over (leaf Releasing past the grant,
    // or Idle), every upper node was already fully released and a peer
    // may have won the leaf and be re-using those shared ports -- their
    // Trying/Holder state is NOT ours, and recovery must not touch
    // anything above the leaf.
    const Node& leaf = nodes_[path[0].first];
    const Word leaf_ns = co_await p.read(leaf.nstate[path[0].second]);
    if (leaf_ns == kNHolder) {
        for (std::size_t i = path.size(); i-- > 0;) {
            co_await node_finish_release(p, nodes_[path[i].first],
                                         path[i].second);
        }
    } else {
        // Releasing (grant landed or not: node_grant_next's guard makes
        // the re-run safe) or Idle (only the stage write was lost).
        co_await node_finish_release(p, leaf, path[0].second);
    }
    co_await p.write(stage_[slot], kIdle);
    out = RecoveryOutcome::LockReleased;
}

}  // namespace rwr::recover
