#include "core/af_lock_sim.hpp"

#include <stdexcept>

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

AfSimLock::AfSimLock(Memory& mem, AfParams params, AfAblation ablation)
    : params_(params.validated()),
      ablation_(ablation),
      k_(params_.group_size()),
      groups_(params_.num_groups()),
      wl_(make_wl(mem, params_)) {
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
        c_.emplace_back(mem, "af.C" + std::to_string(i), k_, owner_base);
        w_.emplace_back(mem, "af.W" + std::to_string(i), k_, owner_base);
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

std::string AfSimLock::name() const {
    static const char* const kSuffix[] = {"", "[-preentry]", "[-exithelp]"};
    return "A_f(f=" + std::to_string(params_.f) + ")" +
           (params_.dsm_local_spin ? "+dsm" : "") +
           kSuffix[static_cast<int>(ablation_)];
}

// --- Entry points ------------------------------------------------------------

sim::SimTask<void> AfSimLock::reader_entry(sim::Process& p) {
    Attempt a{mutex::AbortControl::never()};
    co_await reader_entry_section(p, a);
}

sim::SimTask<void> AfSimLock::reader_exit(sim::Process& p) {
    return reader_exit_section(p, group_of(p.role_index()),
                               slot_of(p.role_index()));
}

sim::SimTask<void> AfSimLock::writer_entry(sim::Process& p) {
    Attempt a{mutex::AbortControl::never()};
    co_await writer_entry_section(p, a);
}

sim::SimTask<void> AfSimLock::writer_exit(sim::Process& p) {
    return writer_exit_section(p);
}

sim::SimTask<mutex::EnterResult> AfSimLock::entry_abortable(
    sim::Process& p, mutex::AbortControl ctl) {
    if (!p.is_reader() && params_.dsm_local_spin) {
        throw std::invalid_argument(
            "AfSimLock: the DSM variant's WL (Yang-Anderson) cannot abort");
    }
    return attempt(p, ctl);
}

sim::SimTask<mutex::EnterResult> AfSimLock::attempt(sim::Process& p,
                                                    mutex::AbortControl ctl) {
    Attempt a{ctl};
    bool entered = false;
    if (p.is_reader()) {
        entered = co_await reader_entry_section(p, a);
    } else {
        entered = co_await writer_entry_section(p, a);
    }
    co_return entered ? mutex::EnterResult::Acquired
                      : mutex::EnterResult::Aborted;
}

// --- Executor hooks that take more than one step -----------------------------

sim::SimTask<bool> AfSimLock::counts_equal(sim::Process& p, std::uint32_t g) {
    // Line 51 as two root reads, C[g] then W[g]. This is the known torn
    // read: a reader that arrives between them makes the counts look equal
    // while another reader is still in the CS (ROADMAP "The next benchmark
    // PR"). The native executor reads the pair at one instant (equals_now).
    const std::int64_t c = co_await c_[g].read(p);
    const std::int64_t w = co_await w_[g].read(p);
    co_return c == w;
}

template <class Done>
sim::SimTask<bool> AfSimLock::spin(sim::Process& p, Attempt& a, VarId v,
                                   Done done) {
    for (;;) {
        if (a.steps >= a.ctl.patience) {
            co_return false;
        }
        const Word w = co_await p.read(v);
        ++a.steps;
        if (done(w)) {
            co_return true;
        }
    }
}

sim::SimTask<bool> AfSimLock::wait_wsig(sim::Process& p, Attempt& a,
                                        std::uint32_t g, Word want) {
    // Lines 14 and 21: local spin, <= 1 RMR (a single CAS arrives).
    return spin(p, a, wsig_[g], [want](Word sig) { return sig == want; });
}

sim::SimTask<bool> AfSimLock::wait_rsig(sim::Process& p, Attempt& a,
                                        Word sig) {
    // Line 36: await RSIG != sig = <seq, WAIT>. DSM variant: spin on OUR
    // gate, homed here, instead. RSIG == <seq, WAIT> implies the passage-
    // seq writer has not exited, so the gate still holds <= seq; the exit
    // publishes seq + 1 to every gate (before releasing WL), and gate
    // values are monotone in seq -- the gate exceeding `seq` is exactly
    // "the passage-seq writer has left". No lost or false wakes.
    if (params_.dsm_local_spin) {
        return spin(p, a, rgate_[p.role_index()],
                    [seq = sig_seq(sig)](Word gate) { return gate > seq; });
    }
    return spin(p, a, rsig_, [sig](Word cur) { return cur != sig; });
}

sim::SimTask<bool> AfSimLock::wl_enter(sim::Process& p, Attempt& a) {
    if (params_.dsm_local_spin) {
        co_await wl_->enter(p, p.role_index());  // Never asked to abort.
        co_return true;
    }
    // Without dsm_local_spin, make_wl built the Peterson tree.
    auto& peterson = static_cast<mutex::TournamentSimMutex&>(*wl_);
    const mutex::EnterResult r =
        co_await peterson.enter_abortable(p, p.role_index(), a.ctl);
    co_return r == mutex::EnterResult::Acquired;
}

sim::SimTask<void> AfSimLock::publish_gates(sim::Process& p, Word seq) {
    // DSM variant: publish the passage boundary to every reader's gate.
    // Theta(n) writes, all before the WL handover -- the writer-side price
    // of DSM-local reader spins (af_params.hpp).
    if (params_.dsm_local_spin) {
        for (std::uint32_t r = 0; r < params_.n; ++r) {
            co_await p.write(rgate_[r], seq);
        }
    }
}

}  // namespace rwr::core
