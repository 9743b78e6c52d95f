// Simulated implementation of the paper's Algorithm 1 -- the reader-writer
// lock family A_f: core/af_protocol.inc (which walks through the protocol)
// compiled into simulator coroutines, every shared-memory step a
// scheduling point. RMR complexity (Theorem 18): writers Θ(f(n) + log m)
// per passage, readers Θ(log(n/f(n))). Readers never starve; writers can
// starve under a continuous reader flood (paper Section 6).
//
// Aborts. entry_abortable() gives up per mutex::AbortControl, in the
// bounded-abort model of mutex/sim_mutex.hpp: patience counts the
// attempt's own reads in its waits (lines 14, 21, 36), in a C++ local, and
// WL's climb counts its own steps against the same patience, so abort
// placement never reads the global clock and DPOR stays sound. Patience 0
// is try_lock: a reader that finds RSIG = WAIT leaves without waiting.
// The rollbacks are the native ones. The DSM variant's WL (Yang-Anderson)
// cannot abort, so neither can its writers.
//
// Ablations (AfAblation, test-only) each remove one mechanism whose
// purpose the paper explains, to show it is load-bearing:
//  * NoPreentry drops lines 7-17 (the PREENTRY handshake). A reader still
//    waking from the PREVIOUS passage is then double-counted by the new
//    passage's C[i] == W[i] test: the writer can be signalled into the CS
//    while that reader also enters -- mutual exclusion breaks.
//  * NoExitHelp drops lines 41-48 (the exit-section signalling): a writer
//    that saw C[i] > 0 spins forever -- deadlock freedom breaks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/af_params.hpp"
#include "core/signals.hpp"
#include "counter/sim_counter.hpp"
#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/rwlock.hpp"

namespace rwr::core {

enum class AfAblation : std::uint8_t {
    None,
    NoPreentry,
    NoExitHelp,
};

class AfSimLock final : public sim::SimRWLock {
   public:
    AfSimLock(Memory& mem, AfParams params,
              AfAblation ablation = AfAblation::None);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;

    /// The entry section of p's role, giving up per `ctl` (header
    /// comment): Acquired, or Aborted with every announcement rolled back.
    /// Throws std::invalid_argument for a writer of the DSM variant.
    sim::SimTask<mutex::EnterResult> entry_abortable(sim::Process& p,
                                                     mutex::AbortControl ctl);

    [[nodiscard]] std::string name() const override;

    [[nodiscard]] const AfParams& params() const { return params_; }
    [[nodiscard]] std::uint32_t group_of(std::uint32_t reader_index) const {
        return reader_index / k_;
    }
    [[nodiscard]] std::uint32_t slot_of(std::uint32_t reader_index) const {
        return reader_index % k_;
    }

    /// Test hooks: the signal variables, the number of groups.
    [[nodiscard]] VarId wsig_var(std::uint32_t group) const {
        return wsig_[group];
    }
    [[nodiscard]] VarId rsig_var() const { return rsig_; }
    [[nodiscard]] VarId wseq_var() const { return wseq_; }
    [[nodiscard]] std::uint32_t num_groups() const { return groups_; }

    /// Test hooks: exact (non-simulated) counter contents.
    [[nodiscard]] std::int64_t peek_c(const Memory& mem,
                                      std::uint32_t group) const {
        return c_[group].peek_exact(mem);
    }
    [[nodiscard]] std::int64_t peek_w(const Memory& mem,
                                      std::uint32_t group) const {
        return w_[group].peek_exact(mem);
    }

   private:
    // ---- The executor of core/af_protocol.inc ----------------------------
    template <class T>
    using Task = sim::SimTask<T>;
    using Caller = sim::Process&;
    struct Attempt {
        mutex::AbortControl ctl;
        std::uint64_t steps = 0;  ///< Wait reads so far.
    };

    static std::uint32_t index(const sim::Process& p) {
        return p.role_index();
    }
    [[nodiscard]] VarId wsig(std::uint32_t g) const { return wsig_[g]; }
    static auto load(sim::Process& p, VarId v) { return p.read(v); }
    static auto store(sim::Process& p, VarId v, Word w, std::memory_order) {
        return p.write(v, w);
    }
    static auto cas(sim::Process& p, VarId v, Word expected, Word desired) {
        return p.cas(v, expected, desired);
    }
    static auto move_leaf(sim::Process& p, counter::FArraySimCounter& ctr,
                          std::uint32_t slot, std::int32_t from,
                          std::int32_t to, const char*) {
        return ctr.add(p, slot, to - from);
    }
    static auto read_root(sim::Process& p, counter::FArraySimCounter& ctr) {
        return ctr.read(p);
    }
    sim::SimTask<bool> counts_equal(sim::Process& p, std::uint32_t g);
    sim::SimTask<bool> wait_wsig(sim::Process& p, Attempt& a, std::uint32_t g,
                                 Word want);
    sim::SimTask<bool> wait_rsig(sim::Process& p, Attempt& a, Word sig);
    static bool may_wait(const Attempt& a) { return a.ctl.patience != 0; }
    sim::SimTask<bool> wl_enter(sim::Process& p, Attempt& a);
    sim::SimTask<void> wl_exit(sim::Process& p) {
        return wl_->exit(p, p.role_index());
    }
    static void wake_rsig() {}
    static void wake_wsig(std::uint32_t) {}
    sim::SimTask<void> publish_gates(sim::Process& p, Word seq);
    [[nodiscard]] bool no_preentry() const {
        return ablation_ == AfAblation::NoPreentry;
    }
    [[nodiscard]] bool no_exit_help() const {
        return ablation_ == AfAblation::NoExitHelp;
    }
    static void note_reader_retry(const sim::Process&, const Attempt&) {}
    static void note_wl_held(const sim::Process&) {}
    static void note_wl_released() {}

#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "core/af_protocol.inc"

    sim::SimTask<mutex::EnterResult> attempt(sim::Process& p,
                                             mutex::AbortControl ctl);
    /// The waits: read `v` until `done(value)`, each read counted against
    /// the attempt's patience; false once the patience is spent.
    template <class Done>
    sim::SimTask<bool> spin(sim::Process& p, Attempt& a, VarId v, Done done);

    AfParams params_;
    AfAblation ablation_;
    std::uint32_t k_;       ///< Group size K.
    std::uint32_t groups_;  ///< Number of groups (= f, modulo rounding).

    /// WL: Peterson tournament by default; the DSM-homed Yang-Anderson
    /// tournament when params_.dsm_local_spin (same O(log m) CC cost,
    /// bounded exit, starvation freedom -- a drop-in per the paper).
    std::unique_ptr<mutex::SimMutex> wl_;
    std::vector<counter::FArraySimCounter> c_;  ///< C[i].
    std::vector<counter::FArraySimCounter> w_;  ///< W[i].
    std::vector<VarId> wsig_;   ///< WSIG[i] (line 4).
    VarId wseq_;                ///< WSEQ (line 3).
    VarId rsig_;                ///< RSIG (line 4).
    /// DSM variant only: per-reader grant gate (homed at its reader),
    /// holding the latest writer seq whose exit has been published to that
    /// reader. Monotone; replaces the line-36 RSIG spin.
    std::vector<VarId> rgate_;
};

}  // namespace rwr::core
