// Example: watch the model work -- an annotated step trace of A_f on the
// simulated cache-coherent machine.
//
//   $ ./examples/rmr_trace
//
// Runs 2 readers + 1 writer (n=2, m=1, f=1) under a fixed schedule and
// prints every shared-memory step: which process, which operation, which
// variable, whether it cost an RMR (paper Section 2's protocol rules), and
// whether it was an *expanding* step (Definition 3) -- a step that grew the
// executing process's awareness set. Lemma 1 (expanding => RMR) can be
// checked line by line in the output.
#include <cstdio>
#include <string>

#include "core/af_lock_sim.hpp"
#include "knowledge/awareness.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;

class Tracer final : public sim::StepObserver {
   public:
    explicit Tracer(knowledge::AwarenessTracker* tracker)
        : tracker_(tracker) {}

    void on_step(const sim::System& sys, const sim::Process& p, const Op& op,
                 const OpResult& res) override {
        ++step_;
        if (!op.touches_memory()) {
            std::printf("%4d  %s%u  %-9s  (local step, in %s)\n", step_,
                        p.is_reader() ? "R" : "W", p.role_index(), "local",
                        to_string(p.section()).c_str());
            return;
        }
        const bool expanding = tracker_->would_expand(p.id(), op);
        std::printf(
            "%4d  %s%u  %-9s  %-12s -> %-6llu %s %s %s  (aw=%zu, in %s)\n",
            step_, p.is_reader() ? "R" : "W", p.role_index(),
            to_string(op.code), sys.memory().name(op.var).c_str(),
            static_cast<unsigned long long>(res.value),
            res.rmr ? "[RMR]" : "     ",
            res.nontrivial ? "[writes]" : "        ",
            expanding ? "[EXPANDING]" : "",
            tracker_->awareness(p.id()).count(),
            to_string(p.section()).c_str());
    }

   private:
    knowledge::AwarenessTracker* tracker_;
    int step_ = 0;
};

}  // namespace

int main() {
    sim::System sys(Protocol::WriteBack);
    core::AfParams params{.n = 2, .m = 1, .f = 1};
    core::AfSimLock lock(sys.memory(), params);

    knowledge::AwarenessTracker tracker(3, sys.memory().num_variables());
    Tracer tracer(&tracker);
    // Order matters: the tracer reads awareness BEFORE the tracker updates.
    sys.add_observer(&tracer);
    sys.add_observer(&tracker);

    sim::Process& r0 = sys.add_process(sim::Role::Reader);
    sim::Process& r1 = sys.add_process(sim::Role::Reader);
    sim::Process& w = sys.add_process(sim::Role::Writer);
    sim::DriveConfig dc;
    dc.passages = 1;
    r0.set_task(sim::drive(lock, r0, dc));
    r1.set_task(sim::drive(lock, r1, dc));
    w.set_task(sim::drive(lock, w, dc));
    sys.start_all();

    std::printf("A_f with n=2 readers, m=1 writer, f=1 (K=2), write-back "
                "protocol\n");
    std::printf("legend: [RMR] remote memory reference; [EXPANDING] "
                "awareness-growing step (Lemma 1: every such step is an "
                "RMR); aw=|awareness set|\n\n");

    std::printf("--- phase 1: both readers enter and leave the CS ---\n");
    sim::run_solo(sys, r0.id(), 1000,
                  [](const sim::Process& p) { return p.in_cs(); });
    sim::run_solo(sys, r1.id(), 1000,
                  [](const sim::Process& p) { return p.in_cs(); });
    sim::run_solo(sys, r0.id(), 1000);
    sim::run_solo(sys, r1.id(), 1000);

    std::printf("\n--- phase 2: the writer's entry section (it must become "
                "aware of both readers: Lemma 4) ---\n");
    sim::run_solo(sys, w.id(), 1000,
                  [](const sim::Process& p) { return p.in_cs(); });
    std::printf("\nwriter awareness after entry: {");
    for (ProcId id = 0; id < 3; ++id) {
        if (tracker.awareness(w.id()).test(id)) {
            std::printf(" %s%u", id < 2 ? "R" : "W", id < 2 ? id : id - 2);
        }
    }
    std::printf(" }  (must contain R0 and R1)\n");

    std::printf("\n--- phase 3: writer CS + exit ---\n");
    sim::run_solo(sys, w.id(), 1000);

    std::printf("\ntotals: steps=%llu, RMRs=%llu, lemma-1 violations=%llu\n",
                static_cast<unsigned long long>(sys.memory().total_steps()),
                static_cast<unsigned long long>(sys.memory().total_rmrs()),
                static_cast<unsigned long long>(tracker.lemma1_violations()));
    return tracker.lemma1_violations() == 0 ? 0 : 1;
}
