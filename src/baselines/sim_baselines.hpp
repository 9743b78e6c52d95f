// Baseline reader-writer locks for the simulator.
//
// These are the comparison points for the paper's complexity claims:
//
//  * CentralizedSimRWLock -- the folklore one-word lock from read/write/CAS.
//    Simple and correct, but CAS-retry loops make even the reader *exit*
//    section cost Θ(n) RMRs under the adversary (experiment E2 shows the
//    lower-bound construction extracting exactly that), and entry spinning
//    is unbounded. Subject to the paper's tradeoff, far from its frontier.
//    Its native counterpart is a different algorithm on purpose (DESIGN.md
//    §7): it exits with fetch_sub and fetch_and, outside Theorem 5's set.
//
//  * FaaSimRWLock -- baselines/faa_protocol.inc: the centralized FAA lock,
//    whose O(1) RMR reader exit is a point below the tradeoff curve.
//
//  * PhaseFairSimRWLock -- baselines/phase_fair_protocol.inc: PF-T, the
//    fairness side of the paper's open problem. In both, the text's
//    reader_entry, ..., writer_exit are the SimRWLock sections.
//
//  * ReaderPrefSimRWLock -- the classic Courtois et al. construction from
//    two mutexes and a reader count. Writer entry is O(log m) (independent
//    of n), and -- as the tradeoff predicts -- reader entry AND exit are
//    Θ(log n) (the reader-side mutex). Readers starve writers by design.
//
//  * MutexSimRWLock -- degenerate baseline: everyone takes one big mutex.
//    Mutual exclusion holds trivially; Concurrent Entering does not (two
//    readers cannot share the CS), which tests must observe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/rwlock.hpp"
#include "sim/steps.hpp"

namespace rwr::baselines {

/// One word: bit 40 = writer present, low 32 bits = reader count.
class CentralizedSimRWLock final : public sim::SimRWLock {
   public:
    CentralizedSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "centralized"; }

    static constexpr Word kWriterBit = Word{1} << 40;

   private:
    /// Every section: once `free(state)`, CAS the state to `next(state)`,
    /// starting over from a fresh read until the CAS lands.
    template <class Free, class Next>
    sim::SimTask<void> update_when(sim::Process& p, Free free, Next next);

    VarId state_;
};

/// Test-only mutants of the FAA text, as AfAblation is for A_f's.
enum class FaaMutant : std::uint8_t {
    None,
    /// The writer leaves its drain wait on the first wgate_ == 1 it reads,
    /// without reading state_: a reader that backed out under the previous
    /// writer can set the gate after this writer's reset while a reader
    /// that entered between the two writers is still in the CS.
    StaleGate,
};

class FaaSimRWLock final : public sim::SimRWLock, private sim::SimSteps {
   public:
    FaaSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m,
                 FaaMutant mutant = FaaMutant::None);

    [[nodiscard]] std::string name() const override {
        return stale_gate() ? "stale-gate-faa" : "faa";
    }

   private:
    // ---- The executor of baselines/faa_protocol.inc ----------------------

    auto wl_enter(sim::Process& p) { return wl_.enter(p, p.role_index()); }
    auto wl_exit(sim::Process& p) { return wl_.exit(p, p.role_index()); }
    sim::SimTask<void> wait_rgate(sim::Process& p) {
        return spin([this, &p] { return gate_open(p); });
    }
    sim::SimTask<void> wait_drained(sim::Process& p) {
        return spin([this, &p] { return drained(p); });
    }
    static void wake_rgate() {}
    static void wake_wgate() {}
    [[nodiscard]] bool stale_gate() const {
        return mutant_ == FaaMutant::StaleGate;
    }

#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "baselines/faa_protocol.inc"

    mutex::TournamentSimMutex wl_;
    VarId state_;
    VarId rgate_;
    VarId wgate_;
    FaaMutant mutant_;
};

class PhaseFairSimRWLock final : public sim::SimRWLock, private sim::SimSteps {
   public:
    PhaseFairSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    [[nodiscard]] std::string name() const override { return "phase-fair"; }

   private:
    // ---- The executor of baselines/phase_fair_protocol.inc ---------------

    static std::uint32_t index(const sim::Process& p) {
        return p.role_index();
    }
    sim::SimTask<void> wait_phase(sim::Process& p, Word w) {
        return spin([this, &p, w] { return phase_over(p, w); });
    }
    sim::SimTask<void> wait_turn(sim::Process& p, Word ticket) {
        return spin([this, &p, ticket] { return turn_come(p, ticket); });
    }
    sim::SimTask<void> wait_drained(sim::Process& p, Word rticket) {
        return spin([this, &p, rticket] { return drained(p, rticket); });
    }
    static void wake_rin() {}
    static void wake_rout() {}
    static void wake_wout() {}

#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "baselines/phase_fair_protocol.inc"

    VarId rin_, rout_, win_, wout_;
    /// Only the lock-holding writer reads its own slot, so plain
    /// (non-simulated) storage is faithful: it models the writer's private
    /// memory.
    std::vector<Word> wbits_;
};

/// Courtois et al. reader-preference lock built from two tournament mutexes
/// and a plain reader count (protected by the reader-side mutex).
class ReaderPrefSimRWLock final : public sim::SimRWLock {
   public:
    ReaderPrefSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "reader-pref"; }

   private:
    mutex::TournamentSimMutex rmutex_;  ///< Serializes readers (n slots).
    mutex::TournamentSimMutex wmutex_;  ///< Writers + readers' rep (m+1).
    VarId rcount_;                      ///< Protected by rmutex_.
    std::uint32_t rep_slot_;            ///< wmutex_ slot of the readers' rep.
};

/// Everyone takes the same (n+m)-slot tournament mutex.
class MutexSimRWLock final : public sim::SimRWLock {
   public:
    MutexSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "big-mutex"; }

   private:
    mutex::TournamentSimMutex mx_;
    std::uint32_t n_;
};

}  // namespace rwr::baselines
