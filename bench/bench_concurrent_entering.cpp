// E10 -- Concurrent Entering (paper Section 2.1): with all writers in the
// remainder section, a reader enters the CS within a bounded number of its
// own steps, regardless of how many other readers are active.
//
// For each lock, runs writer-free workloads at increasing n and reports the
// max entry-section step count over all passages. A_f's column must stay at
// its deterministic wait-free bound (grows only with log K, never with
// contention); the centralized lock's CAS retries grow with n; the
// big-mutex baseline (which violates Concurrent Entering) grows without
// bound because readers queue.
#include <iostream>
#include <memory>

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

int main() {
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
        }
        t.row(row);
    }
    t.print();
    std::cout << "\n(A_f grows only with log(n/f) -- its wait-free counter "
                 "bound; big-mutex readers queue behind each other: "
                 "Concurrent Entering violated.)\n";
    return 0;
}
