// Negative controls: the verification machinery must CATCH broken locks.
// Each mutant in sim/broken_locks.hpp plants a classic bug; the explorer /
// checkers must flag it. If these tests fail, the green lights elsewhere
// mean nothing.
#include <gtest/gtest.h>

#include "baselines/sim_baselines.hpp"
#include "sim/broken_locks.hpp"
#include "sim/explorer.hpp"

namespace rwr::sim {
namespace {

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

TEST(CheckerTeeth, RandomSchedulesFindTheStaleFaaGate) {
    // The FAA writer that trusts a stale wgate_ breaks mutual exclusion on
    // a handful of these schedules; the fixed writer passes the same run.
    using baselines::FaaMutant;
    const auto mutant = explore_random(
        broken_factory<baselines::FaaSimRWLock>(2, 1, FaaMutant::StaleGate),
        20'000, 1, 100'000);
    EXPECT_GT(mutant.violations, 0u);
    const auto fixed = explore_random(
        broken_factory<baselines::FaaSimRWLock>(2, 1), 20'000, 1, 100'000);
    EXPECT_EQ(fixed.violations, 0u) << fixed.first_violation;
    EXPECT_EQ(fixed.incomplete_runs, 0u);
}

}  // namespace
}  // namespace rwr::sim
