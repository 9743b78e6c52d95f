// Regression tests for the spin-wait helpers (native/spin.hpp): the
// Deadline expiry latch, stride-unaligned polling, and the Backoff
// escalation lifecycle (sleep-slice cap, stage transitions, reset()).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "native/spin.hpp"

namespace {

using rwr::native::Backoff;
using rwr::native::Deadline;
using namespace std::chrono_literals;

// --- Deadline ---------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
    auto d = Deadline::infinite();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(d.poll());
    }
}

TEST(DeadlineTest, ImmediateAlwaysExpired) {
    auto d = Deadline::immediate();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(d.poll());
    }
}

TEST(DeadlineTest, NonPositiveDurationIsImmediate) {
    EXPECT_TRUE(Deadline::after(0ms).is_immediate());
    EXPECT_TRUE(Deadline::after(-5ms).is_immediate());
    EXPECT_FALSE(Deadline::after(1h).is_immediate());
}

// A timeout past steady_clock's range used to overflow the addition to
// now() (UBSan: signed integer overflow), and the wrapped deadline had
// already passed, so a timed acquisition failed at once.
template <class Duration>
void expect_infinite(Duration d) {
    auto deadline = Deadline::after(d);
    EXPECT_TRUE(deadline.is_infinite());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(deadline.poll());
    }
}

TEST(DeadlineTest, HoursMaxIsInfinite) {
    expect_infinite(std::chrono::hours::max());
    EXPECT_FALSE(Deadline::after(std::chrono::hours(1)).is_infinite());
}

TEST(DeadlineTest, MillisecondsMaxIsInfinite) {
    expect_infinite(std::chrono::milliseconds::max());
}

TEST(DeadlineTest, NanosecondsMaxIsInfinite) {
    expect_infinite(std::chrono::nanoseconds::max());
}

// The latch regression: poll() amortizes clock reads with a call-count
// stride, and the buggy version returned *false* on the stride's off
// cycles even after a clock read had already observed expiry. A caller
// that polls once per spin iteration then saw an expired deadline flicker
// back to "not expired" for up to kStride-1 iterations.
TEST(DeadlineTest, ExpiryLatchesAcrossStride) {
    auto d = Deadline::after(1ms);
    std::this_thread::sleep_for(5ms);
    // Drive until the first clock read notices expiry (first call reads).
    int polls = 0;
    while (!d.poll()) {
        ++polls;
        ASSERT_LT(polls, 64) << "expired deadline never reported";
    }
    // Latched: every subsequent call must say expired, with no
    // stride-sized false windows.
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(d.poll()) << "expiry un-latched at call " << i;
    }
}

// Stride-unaligned detection: misalign the internal call counter with
// polls *before* expiry, then check an expired deadline is still reported
// within one full stride of calls.
TEST(DeadlineTest, DetectsExpiryFromAnyStrideAlignment) {
    for (int misalign = 0; misalign < 12; ++misalign) {
        auto d = Deadline::after(20ms);
        for (int i = 0; i < misalign; ++i) {
            EXPECT_FALSE(d.poll());
        }
        std::this_thread::sleep_for(25ms);
        int calls = 0;
        bool seen = false;
        for (; calls < 16; ++calls) {  // 2x kStride gives slack.
            if (d.poll()) {
                seen = true;
                break;
            }
        }
        EXPECT_TRUE(seen) << "misalign=" << misalign
                          << ": expiry not observed within " << calls
                          << " calls";
    }
}

// --- Backoff ----------------------------------------------------------

// The cap regression: escalation doubled the sleep slice *after* checking
// it against the cap, so the slice sequence was 50,100,...,800,1600 --
// overshooting the documented 1000us bound by 60%.
TEST(BackoffTest, SleepSliceNeverExceedsCap) {
    Backoff b;
    // Burn through the spin and yield stages (cheap, no sleeping).
    for (int i = 0; i < Backoff::spin_limit() + Backoff::yield_limit();
         ++i) {
        b.pause();
    }
    ASSERT_EQ(b.stage(), Backoff::Stage::Sleep);
    // Each sleep-stage pause escalates; the slice must stay bounded.
    for (int i = 0; i < 8; ++i) {
        EXPECT_LE(b.sleep_slice(), Backoff::sleep_cap())
            << "slice overshot the cap after " << i << " sleep pauses";
        b.pause();
    }
    EXPECT_EQ(b.sleep_slice(), Backoff::sleep_cap());
}

TEST(BackoffTest, StagesEscalateInOrder) {
    Backoff b;
    EXPECT_EQ(b.stage(), Backoff::Stage::Spin);
    for (int i = 0; i < Backoff::spin_limit(); ++i) {
        b.pause();
    }
    EXPECT_EQ(b.stage(), Backoff::Stage::Yield);
    for (int i = 0; i < Backoff::yield_limit(); ++i) {
        b.pause();
    }
    EXPECT_EQ(b.stage(), Backoff::Stage::Sleep);
}

// The lifecycle contract: reset() must return a slept-out instance to the
// spin stage with the starting slice, so a loop that reuses one instance
// across hand-offs (after calling reset()) does not nap kSleepCap at a
// time on a fresh race.
TEST(BackoffTest, ResetRestartsEscalation) {
    Backoff b;
    for (int i = 0; i < Backoff::spin_limit() + Backoff::yield_limit() + 3;
         ++i) {
        b.pause();
    }
    ASSERT_EQ(b.stage(), Backoff::Stage::Sleep);
    const auto escalated = b.sleep_slice();
    b.reset();
    EXPECT_EQ(b.stage(), Backoff::Stage::Spin);
    EXPECT_LT(b.sleep_slice(), escalated);
}

}  // namespace
