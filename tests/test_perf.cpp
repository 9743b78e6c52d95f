// The native measurement engine (native/perf.hpp): the solo timer behind
// E5c's counter rows and E9's uncontended passage rows, and the contended
// run_perf grid. Timing assertions are one-sided lower bounds that
// sleep_for and steady_clock guarantee, so a loaded host cannot fail them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "native/perf.hpp"

namespace rwr::native::perf {
namespace {

using namespace std::chrono_literals;

constexpr PerfLock kAllLocks[] = {PerfLock::Af, PerfLock::Centralized,
                                  PerfLock::Faa, PerfLock::PhaseFair};

// ---- solo_ns_per_call --------------------------------------------------------

TEST(PerfSolo, ChargesEachCallItsFullCost) {
    // A call that sleeps 200 us cannot cost less than 200 us, whatever
    // batch size the timer settles on.
    const double ns =
        solo_ns_per_call([] { std::this_thread::sleep_for(200us); }, 4ms);
    EXPECT_GE(ns, 200'000.0);
}

TEST(PerfSolo, WarmsUpThenTimesAtLeastTheWindow) {
    std::uint64_t calls = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const double ns = solo_ns_per_call([&] { ++calls; }, 8ms);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(elapsed, 10ms);  // A quarter-window warm-up, then the window.
    ASSERT_GT(calls, 0u);
    // The figure divides at least the window by the timed calls only, and
    // the warm-up calls come on top: ns * all calls must exceed the window.
    EXPECT_GT(ns * static_cast<double>(calls), 8e6);
}

TEST(PerfSolo, RunsTheOpOnTheCallingThread) {
    const std::thread::id caller = std::this_thread::get_id();
    bool elsewhere = false;
    const double ns = solo_ns_per_call(
        [&] { elsewhere |= std::this_thread::get_id() != caller; }, 2ms);
    EXPECT_GT(ns, 0.0);
    EXPECT_FALSE(elsewhere);
}

// ---- PerfConfig and lock names -------------------------------------------

TEST(PerfConfig, DefaultFIsTheCeilingOfSqrtN) {
    const auto f_for = [](std::uint32_t readers, std::uint32_t f) {
        PerfConfig cfg;
        cfg.readers = readers;
        cfg.f = f;
        return cfg.resolved_f();
    };
    EXPECT_EQ(f_for(1, 0), 1u);
    EXPECT_EQ(f_for(4, 0), 2u);
    EXPECT_EQ(f_for(5, 0), 3u);
    EXPECT_EQ(f_for(16, 0), 4u);
    EXPECT_EQ(f_for(17, 0), 5u);
    EXPECT_EQ(f_for(16, 7), 7u);  // An explicit f is taken as given.
}

TEST(PerfLockName, RoundTripsAndRejectsUnknownNames) {
    for (const PerfLock l : kAllLocks) {
        EXPECT_EQ(perf_lock_from(to_string(l)), l) << to_string(l);
    }
    EXPECT_EQ(perf_lock_from("phasefair"), PerfLock::PhaseFair);
    EXPECT_THROW((void)perf_lock_from("mcs"), std::invalid_argument);
}

// ---- run_perf ----------------------------------------------------------------

TEST(PerfRun, NeedsAReaderAndAWriter) {
    PerfConfig cfg;
    cfg.duration_ms = 1;
    cfg.readers = 0;
    EXPECT_THROW((void)run_perf(cfg), std::invalid_argument);
    cfg.readers = 1;
    cfg.writers = 0;
    EXPECT_THROW((void)run_perf(cfg), std::invalid_argument);
}

TEST(PerfRun, EveryLockRunsPassagesForTheWholeWindow) {
    for (const PerfLock l : kAllLocks) {
        PerfConfig cfg;
        cfg.lock = l;
        cfg.readers = 2;
        cfg.writers = 1;
        cfg.warmup_ms = 10;
        cfg.duration_ms = 50;
        const PerfResult r = run_perf(cfg);
        EXPECT_EQ(r.cfg.lock, l);
        EXPECT_GE(r.elapsed_s, 0.050) << to_string(l);
        EXPECT_GT(r.reader_ops + r.writer_ops, 0u) << to_string(l);
        EXPECT_GT(r.throughput_ops(), 0.0) << to_string(l);
    }
}

}  // namespace
}  // namespace rwr::native::perf
