// Every simulated step, pinned: a refactor of a simulated algorithm must
// issue the same steps -- the same ops, in the same order, with the same
// values, on the same variables. perfbench's ComponentLedger classifies
// RMRs by variable names and DPOR keys on VarIds, so a digest can also
// cover the names in allocation order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/passage.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::testkit {

/// FNV-1a over every executed step (pid, op code, VarId index, operands,
/// result, RMR flag), after the variable names if asked.
class StepDigest final : public sim::StepObserver {
   public:
    void on_step(const sim::System&, const sim::Process& p, const Op& op,
                 const OpResult& res) override {
        mix(p.id());
        mix(static_cast<Word>(op.code));
        mix(op.var.index);
        mix(op.arg0);
        mix(op.arg1);
        mix(res.value);
        mix(res.rmr ? 1 : 0);
    }
    void mix(Word w) {
        for (int i = 0; i < 8; ++i) {
            h_ = (h_ ^ ((w >> (8 * i)) & 0xff)) * 0x100000001b3ull;
        }
    }
    void mix(const std::string& s) {
        for (const char ch : s) {
            h_ = (h_ ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
        }
        mix(Word{s.size()});
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

   private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct DigestRun {
    std::uint64_t digest = 0;
    std::uint64_t steps = 0;
    bool finished = false;
};

/// `setup` allocates its object's variables in `sys` and adds the
/// processes that drive it, returning whatever must outlive the run; they
/// run under RandomScheduler(seed) until every process finishes or
/// max_steps.
inline DigestRun digest_run(
    Protocol proto,
    const std::function<std::shared_ptr<void>(sim::System&)>& setup,
    std::uint64_t seed, bool hash_names, std::uint64_t max_steps) {
    sim::System sys(proto);
    const std::shared_ptr<void> keep = setup(sys);
    StepDigest digest;
    if (hash_names) {
        for (std::uint32_t v = 0; v < sys.memory().num_variables(); ++v) {
            digest.mix(sys.memory().name(VarId{v}));
        }
    }
    sys.add_observer(&digest);
    sim::RandomScheduler sched(seed);
    const sim::RunResult res = sim::run(sys, sched, max_steps);
    sys.check_failures();
    return {digest.value(), res.steps, res.all_finished};
}

/// n readers then m writers of the lock `build` makes, 3 passages each
/// with a 2-step CS.
inline DigestRun digest_run(
    Protocol proto,
    const std::function<std::unique_ptr<sim::SimRWLock>(Memory&)>& build,
    std::uint32_t n, std::uint32_t m, std::uint64_t seed, bool hash_names,
    std::uint64_t max_steps) {
    return digest_run(
        proto,
        [&](sim::System& sys) {
            std::shared_ptr<sim::SimRWLock> lock = build(sys.memory());
            sim::DriveConfig dc;
            dc.passages = 3;
            dc.cs_steps = 2;
            for (std::uint32_t r = 0; r < n; ++r) {
                sim::install(*lock, sys.add_process(sim::Role::Reader), dc);
            }
            for (std::uint32_t w = 0; w < m; ++w) {
                sim::install(*lock, sys.add_process(sim::Role::Writer), dc);
            }
            return std::shared_ptr<void>(std::move(lock));
        },
        seed, hash_names, max_steps);
}

}  // namespace rwr::testkit
