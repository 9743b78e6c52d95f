// Recoverable-lock abstraction for the crash-restart (RME) tier.
//
// The recoverable mutual exclusion model (Golab & Ramaraju, PODC'16; survey
// in Golab's SIGACT News column) extends the asynchronous shared-memory
// model with crash-restart failures: a process may lose its entire private
// state at any step while shared memory persists, and is then restarted in
// a dedicated Recover section whose job is to repair the lock's state
// before the process re-enters the normal passage cycle. In the simulator
// this is FaultKind::CrashRestart (sim/fault.hpp) + Process restart
// factories (sim/process.hpp); the locks below are written so that every
// passage section is *restartable*: each section leaves enough persistent
// evidence (per-slot stage words, pid-tagged claims) for recover() to
// decide how far the crashed attempt got and either finish it or undo it.
//
// recover() reports one of three outcomes, which is all the passage
// driver (sim/passage.hpp) needs to resume the passage correctly:
//   * None              -- the crash hit outside any passage (or after a
//                          fully completed one); nothing to repair.
//   * InCriticalSection -- the process holds the lock NOW: the crashed
//                          attempt is completed, the driver must run the
//                          CS and the exit section. When the crash hit
//                          inside the CS this is the Critical-Section
//                          Reentry guarantee: recover() is O(1) and no
//                          conflicting process can have entered meanwhile.
//   * LockReleased      -- the crashed attempt's passage is finished (the
//                          crash hit in the exit section; recovery
//                          completed the release). The passage counts.
// Every RecoverableLock is a recoverable drive() target as it stands.
#pragma once

#include <cstdint>
#include <string>

#include "rmr/memory.hpp"
#include "sim/passage.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::recover {

using RecoveryOutcome = sim::RecoveryOutcome;

[[nodiscard]] inline const char* to_string(RecoveryOutcome o) {
    switch (o) {
        case RecoveryOutcome::None: return "none";
        case RecoveryOutcome::InCriticalSection: return "in-cs";
        case RecoveryOutcome::LockReleased: return "released";
    }
    return "?";
}

/// A lock whose passages survive crash-restart faults. entry/exit dispatch
/// on the process's role (a mutex treats every role the same); recover()
/// runs in Section::Recover after a restart and writes its verdict into
/// `out` (SimTask<void> has no return channel).
class RecoverableLock {
   public:
    virtual ~RecoverableLock() = default;

    virtual sim::SimTask<void> entry(sim::Process& p) = 0;
    virtual sim::SimTask<void> exit(sim::Process& p) = 0;
    virtual sim::SimTask<void> recover(sim::Process& p,
                                       RecoveryOutcome& out) = 0;

    [[nodiscard]] virtual std::string name() const = 0;
};

/// A recoverable m-process mutex addressed by *slot* in [0, m) rather than
/// by pid, so it can be embedded inside a larger lock (RecoverableRWLock
/// runs one over its m writers, keyed by writer role_index) as well as
/// stand alone. The RecoverableLock entry points default slot = pid, which
/// is the standalone configuration (a system of exactly the lock's m
/// processes). Every implementation keeps a per-slot persistent *stage*
/// word with the shared encoding below, written at section boundaries;
/// stage_of() peeks it without a simulated step, which is what the unit
/// tests and the crash adversary use to label where a crash landed.
class RecoverableSlotMutex : public RecoverableLock {
   public:
    static constexpr Word kIdle = 0;
    static constexpr Word kTrying = 1;
    static constexpr Word kInCS = 2;
    static constexpr Word kExiting = 3;

    virtual sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) = 0;
    virtual sim::SimTask<void> exit_slot(sim::Process& p,
                                         std::uint32_t slot) = 0;
    virtual sim::SimTask<void> recover_slot(sim::Process& p,
                                            std::uint32_t slot,
                                            RecoveryOutcome& out) = 0;

    /// Persistent passage stage of `slot` (peeks, no simulated step).
    [[nodiscard]] virtual Word stage_of(const Memory& mem,
                                        std::uint32_t slot) const = 0;

    sim::SimTask<void> entry(sim::Process& p) override {
        return enter(p, p.id());
    }
    sim::SimTask<void> exit(sim::Process& p) override {
        return exit_slot(p, p.id());
    }
    sim::SimTask<void> recover(sim::Process& p,
                               RecoveryOutcome& out) override {
        return recover_slot(p, p.id(), out);
    }
};

}  // namespace rwr::recover
