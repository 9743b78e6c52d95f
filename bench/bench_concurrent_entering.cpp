// E10 -- Concurrent Entering (paper Section 2.1): with all writers in the
// remainder section, a reader enters the CS within a bounded number of its
// own steps, regardless of how many other readers are active.
//
// For each lock, runs writer-free workloads at increasing n and reports the
// max entry-section step count over all passages. A_f's column must stay at
// its deterministic wait-free bound (grows only with log K, never with
// contention); the centralized lock's CAS retries grow with n; the
// big-mutex baseline (which violates Concurrent Entering) grows without
// bound because readers queue. Exit-code checks (exit 1, named on stderr):
// A_f stays within its bound at every n, and big-mutex exceeds it at 256.
#include <bit>
#include <iostream>
#include <memory>

#include "harness/bench_kit.hpp"
#include "harness/locks.hpp"
#include "harness/table.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

std::uint64_t max_entry_steps(LockKind kind, std::uint32_t n,
                              std::uint64_t seed) {
    sim::System sys(Protocol::WriteBack);
    auto lock = make_sim_lock(kind, sys.memory(), n, /*m=*/1, /*f=*/2);
    std::vector<std::vector<sim::PassageRecord>> records(n);
    for (std::uint32_t r = 0; r < n; ++r) {
        sim::Process& p = sys.add_process(sim::Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 3;
        dc.cs_steps = 2;
        dc.records = &records[r];
        p.set_task(sim::drive(*lock, p, dc));
    }
    sim::RandomScheduler sched(seed);
    sim::run(sys, sched, 50'000'000);
    std::uint64_t worst = 0;
    for (const auto& recs : records) {
        for (const auto& rec : recs) {
            worst = std::max(worst, rec.delta.steps_in(Section::Entry));
        }
    }
    return worst;
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("concurrent_entering", argc, argv, {});
    std::cout << "bench_concurrent_entering: max reader entry steps with "
                 "writers quiescent (E10; 3 passages x 4 seeds)\n\n";
    Table t({"lock", "n=4", "n=16", "n=64", "n=256"});
    for (const LockKind kind : all_lock_kinds()) {
        std::vector<std::string> row{to_string(kind)};
        for (const std::uint32_t n : {4u, 16u, 64u, 256u}) {
            std::uint64_t worst = 0;
            for (std::uint64_t seed = 0; seed < 4; ++seed) {
                worst = std::max(worst, max_entry_steps(kind, n, seed));
            }
            row.push_back(fmt(worst));
            // A_f's wait-free bound: 3 + 8 ceil(log2 K), K = ceil(n / 2).
            const auto bound = 3 + 8 * static_cast<std::uint64_t>(
                                           std::bit_width((n + 1) / 2 - 1));
            const std::string at = "E10: " + to_string(kind) + " n=" +
                                   std::to_string(n) + " worst entry " +
                                   std::to_string(worst) + " vs A_f's bound " +
                                   std::to_string(bound);
            if (kind == LockKind::Af) {
                kit.check(worst <= bound, at);
            } else if (kind == LockKind::BigMutex && n == 256) {
                kit.check(worst > bound, at);
            }
        }
        t.row(row);
    }
    t.print();
    std::cout << "\n(A_f grows only with log(n/f) -- its wait-free counter "
                 "bound; big-mutex readers queue behind each other: "
                 "Concurrent Entering violated.)\n";
    return kit.finish();
}
