// E4 -- Lemma 1: every expanding step incurs an RMR.
//
// Runs randomized full-system executions of every lock with the awareness
// tracker attached and reports, per lock and protocol: total steps, total
// RMRs, total expanding steps, Lemma 1 violations (must be zero), blind
// hits (expansions RMR-explained by an earlier blind write; see
// knowledge/awareness.hpp), and the fraction of RMRs that are expanding --
// i.e. how much of the RMR cost is knowledge acquisition.
//
// Exit 1 (check named on stderr) on any Lemma 1 violation or on a run
// that hits its step budget.
#include <iostream>
#include <memory>
#include <string>

#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "knowledge/awareness.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct Outcome {
    std::uint64_t steps = 0;
    std::uint64_t rmrs = 0;
    std::uint64_t expanding = 0;
    std::uint64_t violations = 0;
    std::uint64_t blind = 0;
    bool finished = false;
};

Outcome run_tracked(LockKind kind, Protocol proto, std::uint64_t seed) {
    sim::System sys(proto);
    auto lock = make_sim_lock(kind, sys.memory(), /*n=*/12, /*m=*/3,
                              /*f=*/4);
    for (std::uint32_t r = 0; r < 12; ++r) {
        sim::Process& p = sys.add_process(sim::Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 5;
        dc.cs_steps = 2;
        p.set_task(sim::drive(*lock, p, dc));
    }
    for (std::uint32_t w = 0; w < 3; ++w) {
        sim::Process& p = sys.add_process(sim::Role::Writer);
        sim::DriveConfig dc;
        dc.passages = 5;
        dc.cs_steps = 2;
        p.set_task(sim::drive(*lock, p, dc));
    }
    knowledge::AwarenessTracker tracker(15, sys.memory().num_variables());
    sys.add_observer(&tracker);

    sim::RandomScheduler sched(seed);
    const auto rr = sim::run(sys, sched, 20'000'000);

    Outcome out;
    out.finished = rr.all_finished;
    out.steps = sys.memory().total_steps();
    out.rmrs = sys.memory().total_rmrs();
    out.expanding = tracker.total_expanding_steps();
    out.violations = tracker.lemma1_violations();
    out.blind = tracker.blind_hits();
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("expanding_rmr", argc, argv, {});
    std::cout << "bench_expanding_rmr: Lemma 1 audited over randomized "
                 "executions (n=12, m=3, 5 passages each, 8 seeds)\n";
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E4: protocol = " << to_string(proto) << " ===\n";
        Table t({"lock", "steps", "RMRs", "expanding", "expand/RMR",
                 "L1 violations", "blind hits"});
        for (const LockKind kind : all_lock_kinds()) {
            Outcome total;
            bool all_finished = true;
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                const auto o = run_tracked(kind, proto, seed);
                total.steps += o.steps;
                total.rmrs += o.rmrs;
                total.expanding += o.expanding;
                total.violations += o.violations;
                total.blind += o.blind;
                all_finished = all_finished && o.finished;
            }
            t.row({to_string(kind), fmt(total.steps), fmt(total.rmrs),
                   fmt(total.expanding),
                   fmt(static_cast<double>(total.expanding) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, total.rmrs)),
                       2),
                   fmt(total.violations) +
                       (total.violations == 0 ? "" : "  <-- BUG"),
                   fmt(total.blind)});
            const std::string at = to_string(proto) + " " + to_string(kind);
            kit.check(total.violations == 0,
                      at + ": " + std::to_string(total.violations) +
                          " Lemma 1 violation(s)");
            kit.check(all_finished, at + ": some runs hit the step budget");
        }
        t.print();
    }
    std::cout << "\nLemma 1 violations must be 0 everywhere. Blind hits are "
                 "expansions whose RMR was paid by an earlier blind write "
                 "(write-back corner; see knowledge/awareness.hpp).\n";
    return kit.finish();
}
