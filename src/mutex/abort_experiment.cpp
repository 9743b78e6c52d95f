#include "mutex/abort_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/checker.hpp"
#include "sim/por.hpp"
#include "sim/process.hpp"
#include "sim/system.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

const char* to_string(AbortSched s) {
    switch (s) {
        case AbortSched::RoundRobin:
            return "round-robin";
        case AbortSched::ObliviousRandom:
            return "oblivious";
        case AbortSched::AdaptiveRmr:
            return "adaptive";
    }
    return "?";
}

namespace {

/// Longest patience an impatient attempt draws, in own entry steps.
constexpr std::uint64_t kMaxPatience = 12;

/// Uniform double in [0, 1) from a SplitMix64 state, advancing it.
double u01(std::uint64_t& state) {
    state = sim::splitmix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
}

/// drive() target: an abortable mutex under the seeded abort mix. Each
/// attempt draws its coin from its slot's stream when drive() builds the
/// attempt -- once per attempt, before the Entry marker.
struct AbortMix {
    AbortableSimMutex* mx;
    const AbortWorkload& w;
    std::vector<std::uint64_t> streams;  ///< One SplitMix64 state per slot.

    sim::SimTask<EnterResult> entry(sim::Process& p) {
        std::uint64_t& stream = streams[p.role_index()];
        AbortControl ctl = AbortControl::never();
        if (u01(stream) < w.abort_rate) {
            stream = sim::splitmix64(stream);
            ctl = AbortControl::after(1 + stream % kMaxPatience);
        }
        return mx->enter_abortable(p, p.role_index(), ctl);
    }
    sim::SimTask<void> exit(sim::Process& p) {
        return mx->exit(p, p.role_index());
    }
};

}  // namespace

AbortExperimentResult run_abort_experiment(const AbortExperimentConfig& cfg) {
    if (!cfg.builder) {
        throw std::invalid_argument("run_abort_experiment: no builder");
    }
    sim::System sys(cfg.protocol);
    std::unique_ptr<SimMutex> mx = cfg.builder(sys.memory());
    // A mutex that cannot abort runs plain blocking passages.
    MutexPassage plain{*mx};
    AbortMix mix{dynamic_cast<AbortableSimMutex*>(mx.get()), cfg.workload, {}};
    std::vector<std::vector<sim::PassageRecord>> episodes(cfg.m);
    sim::DriveConfig dc;
    dc.passages = cfg.passages;
    dc.cs_steps = cfg.cs_steps;
    for (std::uint32_t s = 0; s < cfg.m; ++s) {
        sim::Process& p = sys.add_process(sim::Role::Writer);
        dc.records = &episodes[s];
        mix.streams.push_back(sim::stream_seed(cfg.workload.seed, s));
        if (mix.mx != nullptr) {
            sim::install(mix, p, dc);
        } else {
            sim::install(plain, p, dc);
        }
    }
    sim::MutualExclusionChecker checker(/*throw_on_violation=*/false);
    sys.add_observer(&checker);

    sim::RunPlan plan;
    plan.sched = cfg.sched;
    plan.seed = cfg.sched_seed;
    plan.max_steps = cfg.max_steps;
    const sim::PlanResult run = sim::run_plan(sys, plan);

    AbortExperimentResult out;
    AmortizedStats& a = out.amortized;
    for (const auto& slot : episodes) {
        for (const sim::PassageRecord& e : slot) {
            const std::uint64_t rmrs = e.delta.total_rmrs();
            ++a.episodes;
            a.episode_rmrs += rmrs;
            const bool aborted = e.kind == sim::PassageRecord::Kind::Aborted;
            if (aborted) {
                ++a.aborted_episodes;
                a.abort_rmrs += rmrs;
                a.abort_rmr_max = std::max(a.abort_rmr_max, rmrs);
            } else {
                ++a.passages;
            }
            if (cfg.record_episodes) {
                out.episodes.push_back(
                    {aborted, rmrs, e.delta.total_steps()});
            }
        }
    }
    out.me_violations = checker.violations();
    out.finished = run.finished;
    out.steps = run.steps;
    out.memory_rmrs = sys.memory().total_rmrs();
    out.proc_rmrs = sys.memory().proc_rmrs();
    return out;
}

TrialStats estimate_expected_amortized(
    const std::function<AbortExperimentConfig(std::uint64_t)>& make_cfg,
    std::uint64_t trials, std::uint64_t seed) {
    TrialStats out;
    out.trials = trials;
    if (trials == 0) {
        return out;
    }
    std::vector<double> xs;
    xs.reserve(trials);
    for (std::uint64_t i = 0; i < trials; ++i) {
        const AbortExperimentResult r =
            run_abort_experiment(make_cfg(sim::stream_seed(seed, i)));
        xs.push_back(r.amortized.amortized_rmrs_per_passage());
    }
    double sum = 0.0;
    for (std::uint64_t i = 0; i < trials; ++i) {
        sum += xs[i];
        // Strict argmax, ties to the lowest index: any parallel re-ordering
        // of the trials would still reduce to the same (worst, worst_trial).
        if (xs[i] > out.worst) {
            out.worst = xs[i];
            out.worst_trial = i;
        }
    }
    out.mean = sum / static_cast<double>(trials);
    if (trials > 1) {
        double ss = 0.0;
        for (const double x : xs) {
            ss += (x - out.mean) * (x - out.mean);
        }
        out.stddev = std::sqrt(ss / static_cast<double>(trials - 1));
        out.ci95 = 1.96 * out.stddev / std::sqrt(static_cast<double>(trials));
    }
    return out;
}

}  // namespace rwr::mutex
