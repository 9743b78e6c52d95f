#include "sim/passage.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "sim/checker.hpp"
#include "sim/scheduler.hpp"

namespace rwr::sim {

namespace {

double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

PlanResult run_plan(System& sys, const RunPlan& plan) {
    std::unique_ptr<Scheduler> sched;
    if (!plan.replay.empty()) {
        sched = std::make_unique<ReplayScheduler>(plan.replay);
    } else if (plan.sched == SchedKind::RoundRobin) {
        sched = std::make_unique<RoundRobinScheduler>();
    } else if (plan.sched == SchedKind::Random) {
        sched = std::make_unique<RandomScheduler>(plan.seed);
    } else {
        sched = std::make_unique<AdaptiveRmrScheduler>(plan.seed);
    }
    std::unique_ptr<RecordingScheduler> recorder;
    Scheduler* active = sched.get();
    if (plan.record_schedule) {
        recorder = std::make_unique<RecordingScheduler>(*sched);
        active = recorder.get();
    }

    // Run in bounded chunks so a livelocked simulation honours the wall
    // deadline instead of spinning through all of max_steps. Chunking is
    // invisible to the schedulers (they are stateful per pick), so recorded
    // schedules replay identically regardless of chunk boundaries.
    const auto wall_deadline =
        plan.wall_deadline_ms > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(plan.wall_deadline_ms)
            : std::chrono::steady_clock::time_point::max();
    constexpr std::uint64_t kChunk = 65536;
    PlanResult res;
    std::uint64_t remaining = plan.max_steps;
    const auto sim_start = std::chrono::steady_clock::now();
    const double cpu_start = thread_cpu_ms();
    while (remaining > 0) {
        const std::uint64_t chunk = std::min(remaining, kChunk);
        const RunResult rr = run(sys, *active, chunk);
        res.steps += rr.steps;
        remaining -= rr.steps;
        res.finished = rr.all_finished;
        if (res.finished || rr.steps < chunk) {
            break;  // Done, or no process is runnable.
        }
        if (std::chrono::steady_clock::now() >= wall_deadline) {
            res.deadline_expired = true;
            res.diagnosis = "wall deadline (" +
                            std::to_string(plan.wall_deadline_ms) +
                            " ms) expired after " + std::to_string(res.steps) +
                            " steps\n" + ProgressChecker::describe(sys);
            break;
        }
    }
    res.cpu_ms = thread_cpu_ms() - cpu_start;
    res.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - sim_start)
                      .count();
    sys.check_failures();
    if (recorder) {
        res.schedule = recorder->choices();
    }
    return res;
}

}  // namespace rwr::sim
