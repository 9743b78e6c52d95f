// Negative controls: the verification machinery must CATCH broken locks.
// Each BrokenLock variant plants a classic bug; the explorer / checkers
// must flag it. If these tests fail, the green lights elsewhere mean
// nothing.
#include <gtest/gtest.h>

#include <memory>

#include "sim/checker.hpp"
#include "sim/explorer.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::sim {
namespace {

/// Bug #1: readers don't synchronize with writers at all.
class NoReaderWaitLock final : public SimRWLock {
   public:
    explicit NoReaderWaitLock(Memory& mem)
        : state_(mem.allocate("broken.state", 0)) {}

    SimTask<void> reader_entry(Process& p) override {
        co_await p.read(state_);  // Looks, never waits.
    }
    SimTask<void> reader_exit(Process& p) override {
        co_await p.read(state_);
    }
    SimTask<void> writer_entry(Process& p) override {
        for (;;) {
            const Word prior = co_await p.cas(state_, 0, 1);
            if (prior == 0) {
                co_return;  // Excludes other writers, ignores readers.
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

/// Bug #2: the writer checks the reader count non-atomically and without a
/// wait phase: a reader arriving between check and acquire slips in (a
/// time-of-check/time-of-use race).
class TocTouLock final : public SimRWLock {
   public:
    explicit TocTouLock(Memory& mem)
        : readers_(mem.allocate("toctou.readers", 0)),
          wlock_(mem.allocate("toctou.wlock", 0)) {}

    SimTask<void> reader_entry(Process& p) override {
        // Readers do wait for an active writer...
        for (;;) {
            const Word w = co_await p.read(wlock_);
            if (w == 0) {
                break;
            }
        }
        // ...but increment only after the check: racy against the writer.
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
        // Single drain check, no re-verification: broken.
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

template <typename LockT>
ScenarioFactory broken_factory(std::uint32_t n, std::uint32_t m) {
    return [n, m]() {
        Scenario sc;
        sc.sys = std::make_unique<System>(Protocol::WriteBack);
        auto lock = std::make_unique<LockT>(sc.sys->memory());
        for (std::uint32_t r = 0; r < n; ++r) {
            Process& p = sc.sys->add_process(Role::Reader);
            DriveConfig dc;
            dc.passages = 2;
            dc.cs_steps = 2;
            p.set_task(drive(*lock, p, dc));
        }
        for (std::uint32_t w = 0; w < m; ++w) {
            Process& p = sc.sys->add_process(Role::Writer);
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

TEST(CheckerTeeth, ExplorerFindsTheNoWaitBug) {
    const auto res =
        explore_dfs(broken_factory<NoReaderWaitLock>(1, 1), 10, 10'000);
    EXPECT_GT(res.violations, 0u)
        << "a lock whose readers ignore writers must be caught";
}

TEST(CheckerTeeth, ExplorerFindsTheTocTouBug) {
    const auto res =
        explore_dfs(broken_factory<TocTouLock>(2, 1), 12, 10'000);
    EXPECT_GT(res.violations, 0u)
        << "the time-of-check/time-of-use race must be caught";
}

TEST(CheckerTeeth, RandomSchedulesFindTheBugsToo) {
    const auto r1 = explore_random(broken_factory<NoReaderWaitLock>(2, 1),
                                   200, 5, 50'000);
    EXPECT_GT(r1.violations, 0u);
    const auto r2 =
        explore_random(broken_factory<TocTouLock>(2, 1), 200, 5, 50'000);
    EXPECT_GT(r2.violations, 0u);
}

}  // namespace
}  // namespace rwr::sim
