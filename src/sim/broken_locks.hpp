// Deliberately broken RW locks ("mutants") for validating that the
// exploration machinery still has teeth. test_checker_teeth keeps private
// copies to stay self-contained; this header is the shared source for the
// reduction-era users (test_explore_reduction, bench_explore) that must
// prove the reduced search preserves every violation verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mutex/jj_amortized.hpp"
#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/rwlock.hpp"
#include "sim/system.hpp"

namespace rwr::sim {

/// Readers don't synchronize with writers at all: any writer CS with a
/// concurrent reader violates mutual exclusion within a handful of steps.
class NoReaderWaitLock final : public SimRWLock {
   public:
    explicit NoReaderWaitLock(Memory& mem)
        : state_(mem.allocate("broken.state", 0)) {}

    SimTask<void> reader_entry(Process& p) override {
        co_await p.read(state_);
    }
    SimTask<void> reader_exit(Process& p) override {
        co_await p.read(state_);
    }
    SimTask<void> writer_entry(Process& p) override {
        for (;;) {
            const Word prior = co_await p.cas(state_, 0, 1);
            if (prior == 0) {
                co_return;
            }
        }
    }
    SimTask<void> writer_exit(Process& p) override {
        co_await p.write(state_, 0);
    }
    [[nodiscard]] std::string name() const override { return "broken-1"; }

   private:
    VarId state_;
};

/// The writer samples the reader count once, without re-verification: a
/// reader arriving between the writer's check and its CS entry slips in
/// (a TOCTOU race needing a specific interleaving window).
class TocTouLock final : public SimRWLock {
   public:
    explicit TocTouLock(Memory& mem)
        : readers_(mem.allocate("toctou.readers", 0)),
          wlock_(mem.allocate("toctou.wlock", 0)) {}

    SimTask<void> reader_entry(Process& p) override {
        for (;;) {
            const Word w = co_await p.read(wlock_);
            if (w == 0) {
                break;
            }
        }
        for (;;) {
            const Word c = co_await p.read(readers_);
            const Word prior = co_await p.cas(readers_, c, c + 1);
            if (prior == c) {
                co_return;
            }
        }
    }
    SimTask<void> reader_exit(Process& p) override {
        for (;;) {
            const Word c = co_await p.read(readers_);
            const Word prior = co_await p.cas(readers_, c, c - 1);
            if (prior == c) {
                co_return;
            }
        }
    }
    SimTask<void> writer_entry(Process& p) override {
        for (;;) {
            const Word prior = co_await p.cas(wlock_, 0, 1);
            if (prior == 0) {
                break;
            }
        }
        co_await p.read(readers_);
    }
    SimTask<void> writer_exit(Process& p) override {
        co_await p.write(wlock_, 0);
    }
    [[nodiscard]] std::string name() const override { return "broken-2"; }

   private:
    VarId readers_;
    VarId wlock_;
};

/// Abortable-mutex mutant: the JJ ticket queue with its abort path
/// "helpfully" advancing the grant cursor past its own ticket instead of
/// abandoning the entry. The next claimant then self-grants off the
/// advanced cursor while the real holder may still be in the CS -- a
/// mutual exclusion violation that ONLY materializes on schedules where an
/// abort actually fires, making it the teeth-check for the single-abort-
/// placement exploration sweep (test_abortable): a sweep that cannot
/// distinguish this mutant from the real lock proves nothing.
///
/// Riding in this header alongside the RW mutants; users link rwr_mutex
/// (test_explore_reduction and bench_explore already do).
class BrokenAbortTicketMutex final : public mutex::JJAmortizedMutex {
   public:
    BrokenAbortTicketMutex(Memory& mem, const std::string& name,
                           std::uint32_t m)
        : mutex::JJAmortizedMutex(mem, name, m, broken_options()) {}

    [[nodiscard]] std::string name() const override { return "broken-abort"; }

   private:
    [[nodiscard]] static mutex::JJAmortizedMutex::Options broken_options() {
        mutex::JJAmortizedMutex::Options o;
        o.broken_abort_advances_grant = true;
        return o;
    }
};

/// n readers + m writers driving 2 passages of `LockT` with a throwing
/// mutual-exclusion checker -- the standard mutant scenario.
template <typename LockT>
[[nodiscard]] inline ScenarioFactory broken_factory(std::uint32_t n,
                                                    std::uint32_t m) {
    return [n, m]() {
        Scenario sc;
        sc.sys = std::make_unique<System>(Protocol::WriteBack);
        auto lock = std::make_unique<LockT>(sc.sys->memory());
        for (std::uint32_t i = 0; i < n + m; ++i) {
            Process& p =
                sc.sys->add_process(i < n ? Role::Reader : Role::Writer);
            DriveConfig dc;
            dc.passages = 2;
            dc.cs_steps = 2;
            p.set_task(drive(*lock, p, dc));
        }
        sc.checker =
            std::make_unique<MutualExclusionChecker>(/*throw=*/true);
        sc.sys->add_observer(sc.checker.get());
        sc.lock = std::move(lock);
        return sc;
    };
}

}  // namespace rwr::sim
