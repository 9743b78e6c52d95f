#include "core/af_lock_sim.hpp"

namespace rwr::core {

namespace {

/// WL is the Peterson tournament, or under dsm_local_spin the Yang-Anderson
/// tournament homed at the writers (pids n .. n+m-1 under the harness
/// convention, so slot s lives at pid n + s).
std::unique_ptr<mutex::SimMutex> make_wl(Memory& mem, const AfParams& params) {
    if (params.dsm_local_spin) {
        return std::make_unique<mutex::YaTournamentSimMutex>(
            mem, "af.WL", params.m, ProcId{params.n});
    }
    return std::make_unique<mutex::TournamentSimMutex>(mem, "af.WL", params.m);
}

}  // namespace

AfSimLock::AfSimLock(Memory& mem, AfParams params)
    : params_(params),
      k_(params.group_size()),
      groups_(params.num_groups()),
      wl_(make_wl(mem, params)) {
    params_.validate();
    // DSM variant: the writer-side words live in writer 0's segment (the
    // writer is the only process that spins on WSIG; see af_params.hpp).
    const ProcId wowner =
        params_.dsm_local_spin ? ProcId{params_.n} : Memory::kNoOwner;
    c_.reserve(groups_);
    w_.reserve(groups_);
    wsig_.reserve(groups_);
    for (std::uint32_t i = 0; i < groups_; ++i) {
        // DSM homing convention (used only under Protocol::Dsm): reader
        // with role index r is the process with pid r -- the harness adds
        // readers first -- so group i's slot s leaf is homed at pid i*K+s.
        const std::optional<ProcId> owner_base{i * k_};
        c_.push_back(std::make_unique<counter::FArraySimCounter>(
            mem, "af.C" + std::to_string(i), k_, owner_base));
        w_.push_back(std::make_unique<counter::FArraySimCounter>(
            mem, "af.W" + std::to_string(i), k_, owner_base));
        // WSIG[i] init <0, ⊥> (line 4).
        wsig_.push_back(mem.allocate("af.WSIG" + std::to_string(i),
                                     pack_sig(0, WsOp::Bot), wowner));
    }
    wseq_ = mem.allocate("af.WSEQ", 0, wowner);                // Line 3.
    rsig_ = mem.allocate("af.RSIG", pack_sig(0, RsOp::Nop), wowner);  // L. 4.
    if (params_.dsm_local_spin) {
        rgate_.reserve(params_.n);
        for (std::uint32_t r = 0; r < params_.n; ++r) {
            rgate_.push_back(
                mem.allocate("af.RGATE" + std::to_string(r), 0, ProcId{r}));
        }
    }
}

// --- Readers (paper lines 29-49) --------------------------------------------

sim::SimTask<void> AfSimLock::help_wcs(sim::Process& p, std::uint32_t group,
                                       Word seq) {
    // Lines 50-54. Reads of C[i] and W[i] are O(1) (counter roots).
    const std::int64_t c = co_await c_[group]->read(p);
    const std::int64_t w = co_await w_[group]->read(p);
    if (c == w) {
        // Line 52: exactly one reader's CAS succeeds (expected value embeds
        // the passage's seq and the armed WAIT opcode).
        co_await p.cas(wsig_[group], pack_sig(seq, WsOp::Wait),
                       pack_sig(seq, WsOp::Cs));
    }
}

sim::SimTask<void> AfSimLock::reader_entry(sim::Process& p) {
    const std::uint32_t group = group_of(p.role_index());  // Line 30.
    const std::uint32_t slot = slot_of(p.role_index());

    co_await c_[group]->add(p, slot, +1);  // Line 31.

    const Word sig = co_await p.read(rsig_);  // Line 32.
    const Word seq = sig_seq(sig);
    if (sig_rs_op(sig) == RsOp::Wait) {       // Line 33.
        co_await w_[group]->add(p, slot, +1);  // Line 34.
        co_await help_wcs(p, group, seq);      // Line 35.
        if (params_.dsm_local_spin) {
            // Line 36, DSM variant: spin on OUR gate, homed here. RSIG ==
            // <seq, WAIT> implies the passage-seq writer has not exited,
            // so the gate still holds <= seq; the exit publishes seq + 1
            // to every gate (before releasing WL), and gate values are
            // monotone in seq -- the gate exceeding `seq` is exactly
            // "the passage-seq writer has left". No lost or false wakes.
            for (;;) {
                const Word g = co_await p.read(rgate_[p.role_index()]);
                if (g > seq) {
                    break;
                }
            }
        } else {
            for (;;) {  // Line 36: await RSIG change.
                const Word cur = co_await p.read(rsig_);
                if (cur != pack_sig(seq, RsOp::Wait)) {
                    break;
                }
            }
        }
        co_await w_[group]->add(p, slot, -1);  // Line 37.
    }
    // Else (NOP or PREENTRY): enter the CS directly -- Concurrent Entering.
}

sim::SimTask<void> AfSimLock::reader_exit(sim::Process& p) {
    const std::uint32_t group = group_of(p.role_index());
    const std::uint32_t slot = slot_of(p.role_index());

    co_await c_[group]->add(p, slot, -1);  // Line 40.

    const Word sig = co_await p.read(rsig_);  // Line 41.
    const Word seq = sig_seq(sig);
    if (sig_rs_op(sig) == RsOp::PreEntry) {  // Line 42.
        const std::int64_t c = co_await c_[group]->read(p);  // Line 43.
        if (c == 0) {
            // Line 45: tell the writer no group-i readers remain.
            co_await p.cas(wsig_[group], pack_sig(seq, WsOp::Bot),
                           pack_sig(seq, WsOp::Proceed));
        }
    } else if (sig_rs_op(sig) == RsOp::Wait) {  // Line 47.
        co_await help_wcs(p, group, seq);       // Line 48.
    }
}

// --- Writers (paper lines 5-28) ----------------------------------------------

sim::SimTask<void> AfSimLock::writer_entry(sim::Process& p) {
    co_await wl_->enter(p, p.role_index());  // Line 6.

    // Only the WL holder writes WSEQ, so this read is stable for the whole
    // passage (the paper reads val(WSEQ) throughout).
    const Word seq = co_await p.read(wseq_);

    for (std::uint32_t i = 0; i < groups_; ++i) {  // Lines 7-9.
        co_await p.write(wsig_[i], pack_sig(seq, WsOp::Bot));
    }
    co_await p.write(rsig_, pack_sig(seq, RsOp::PreEntry));  // Line 11.

    // Lines 12-17: drain readers waiting on *previous* passages. For each
    // group: if C[i] > 0, some readers are still in passages; one of them
    // will observe C[i] == 0 on its way out and CAS WSIG[i] to PROCEED.
    for (std::uint32_t i = 0; i < groups_; ++i) {
        const std::int64_t c = co_await c_[i]->read(p);  // Line 13.
        if (c > 0) {
            for (;;) {  // Line 14: local spin, <= 1 RMR (single CAS arrives).
                const Word sig = co_await p.read(wsig_[i]);
                if (sig == pack_sig(seq, WsOp::Proceed)) {
                    break;
                }
            }
        }
        co_await p.write(wsig_[i], pack_sig(seq, WsOp::Wait));  // Line 16.
    }

    co_await p.write(rsig_, pack_sig(seq, RsOp::Wait));  // Line 18.

    // Lines 19-23: wait until every group's readers have either exited or
    // parked on line 36. The group signals via HelpWCS when C[i] == W[i].
    for (std::uint32_t i = 0; i < groups_; ++i) {
        const std::int64_t c = co_await c_[i]->read(p);  // Line 20.
        if (c != 0) {
            for (;;) {  // Line 21: local spin, <= 1 RMR.
                const Word sig = co_await p.read(wsig_[i]);
                if (sig == pack_sig(seq, WsOp::Cs)) {
                    break;
                }
            }
        }
    }
}

sim::SimTask<void> AfSimLock::writer_exit(sim::Process& p) {
    const Word seq = co_await p.read(wseq_);            // Stable: we hold WL.
    co_await p.write(wseq_, seq + 1);                    // Line 25.
    co_await p.write(rsig_, pack_sig(seq + 1, RsOp::Nop));  // Line 26.
    if (params_.dsm_local_spin) {
        // DSM variant: publish the passage boundary to every reader's
        // gate. Theta(n) writes, all before the WL handover -- the
        // writer-side price of DSM-local reader spins (af_params.hpp).
        for (std::uint32_t r = 0; r < params_.n; ++r) {
            co_await p.write(rgate_[r], seq + 1);
        }
    }
    co_await wl_->exit(p, p.role_index());               // Line 27.
}

}  // namespace rwr::core
