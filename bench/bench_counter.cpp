// E5 -- the counter substrate (paper Section 4, Jayanti [15]).
//
// Simulated: f-array add must cost Θ(log K) steps/RMRs and read O(1);
// the naive single-word CAS counter degrades under contention (retries).
// Native: ns per add and read on one thread (perf::solo_ns_per_call;
// the timings are indicative only), beside the CASes a solo add makes.
//
// Exit 1 (check named on stderr) unless a solo add takes exactly
// 4*log2(K)+2 steps and a read 1 step at every K, the naive counter's
// contended steps/add rise strictly with K, and the f-array's stay within
// 8*log2(K).
#include <bit>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>

#include "counter/sim_counter.hpp"
#include "harness/bench_kit.hpp"
#include "harness/table.hpp"
#include "native/counter.hpp"
#include "native/perf.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

sim::SimTask<void> add_loop(counter::FArraySimCounter& c, sim::Process& p,
                            std::uint32_t slot, int iters) {
    for (int i = 0; i < iters; ++i) {
        co_await c.add(p, slot, 1);
    }
}

sim::SimTask<void> naive_add_loop(counter::NaiveSimCounter& c,
                                  sim::Process& p, std::uint32_t slot,
                                  int iters) {
    for (int i = 0; i < iters; ++i) {
        co_await c.add(p, slot, 1);
    }
}

void simulated_tables(bench::Kit& kit) {
    std::cout << "=== E5: f-array counter, solo add/read steps vs K ===\n";
    Table t({"K", "add steps", "add RMRs (WT)", "read steps",
             "4*log2(K)+2"});
    for (const std::uint32_t K : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
        sim::System sys(Protocol::WriteThrough);
        counter::FArraySimCounter c(sys.memory(), "c", K);
        sim::Process& p = sys.add_process(sim::Role::Reader);
        p.set_task(add_loop(c, p, 0, 1));
        sim::RoundRobinScheduler rr;
        const auto res = sim::run(sys, rr, 100'000);
        const auto add_steps = res.steps;
        const auto add_rmrs = p.stats().total_rmrs();

        sim::System sys2(Protocol::WriteThrough);
        counter::FArraySimCounter c2(sys2.memory(), "c", K);
        sim::Process& p2 = sys2.add_process(sim::Role::Reader);
        auto reader = [](counter::FArraySimCounter& cc,
                         sim::Process& pp) -> sim::SimTask<void> {
            co_await cc.read(pp);
        };
        p2.set_task(reader(c2, p2));
        sim::RoundRobinScheduler rr2;
        const auto res2 = sim::run(sys2, rr2, 100);

        const std::uint32_t lg =
            K <= 1 ? 0 : static_cast<std::uint32_t>(std::bit_width(K - 1));
        t.row({fmt(K), fmt(add_steps), fmt(add_rmrs), fmt(res2.steps),
               fmt(4 * lg + 2)});
        kit.check(add_steps == 4 * lg + 2,
                  "E5 K=" + std::to_string(K) + ": solo add took " +
                      std::to_string(add_steps) + " steps, not 4*log2(K)+2");
        kit.check(res2.steps == 1,
                  "E5 K=" + std::to_string(K) + ": read took " +
                      std::to_string(res2.steps) + " steps, not 1");
    }
    t.print();

    std::cout << "\n=== E5b: contended adds, f-array vs naive (K "
                 "processes x 8 adds, fair random, write-back) ===\n";
    Table t2({"K", "f-array steps/add", "f-array RMRs/add",
              "naive steps/add", "naive RMRs/add"});
    double prev_nv_steps = 0;
    for (const std::uint32_t K : {2u, 4u, 8u, 16u, 32u}) {
        constexpr int kAdds = 8;
        double fa_steps = 0, fa_rmrs = 0, nv_steps = 0, nv_rmrs = 0;
        {
            sim::System sys(Protocol::WriteBack);
            counter::FArraySimCounter c(sys.memory(), "c", K);
            for (std::uint32_t s = 0; s < K; ++s) {
                sim::Process& p = sys.add_process(sim::Role::Reader);
                p.set_task(add_loop(c, p, s, kAdds));
            }
            sim::RandomScheduler sched(7);
            const auto res = sim::run(sys, sched, 50'000'000);
            fa_steps = static_cast<double>(res.steps) / (K * kAdds);
            fa_rmrs = static_cast<double>(sys.memory().total_rmrs()) /
                      (K * kAdds);
        }
        {
            sim::System sys(Protocol::WriteBack);
            counter::NaiveSimCounter c(sys.memory(), "c");
            for (std::uint32_t s = 0; s < K; ++s) {
                sim::Process& p = sys.add_process(sim::Role::Reader);
                p.set_task(naive_add_loop(c, p, s, kAdds));
            }
            sim::RandomScheduler sched(7);
            const auto res = sim::run(sys, sched, 50'000'000);
            nv_steps = static_cast<double>(res.steps) / (K * kAdds);
            nv_rmrs = static_cast<double>(sys.memory().total_rmrs()) /
                      (K * kAdds);
        }
        t2.row({fmt(K), fmt(fa_steps), fmt(fa_rmrs), fmt(nv_steps),
                fmt(nv_rmrs)});
        const std::string at = "E5b K=" + std::to_string(K) + ": ";
        kit.check(nv_steps > prev_nv_steps,
                  at + "naive steps/add did not rise with K");
        kit.check(fa_steps <= 8.0 * std::bit_width(K - 1),
                  at + "f-array steps/add above 8*log2(K)");
        prev_nv_steps = nv_steps;
    }
    t2.print();
    std::cout << "(f-array stays ~8*log2 K wait-free steps; the naive "
                 "counter's retries grow with contention)\n\n";
}

/// K = 8 is AfSharedMutex(64, 8)'s group size and K = 64 that of A_f at
/// (n, f) = (64, 1); a solo add CASes its leaf and then one node per level
/// of the 8-ary tree.
void native_table() {
    constexpr std::chrono::milliseconds kWindow(200);
    std::cout << "=== E5c: native f-array counter, ns per call, one thread "
                 "===\n";
    Table t({"op", "K", "CASes", "ns"});
    for (const std::uint32_t K : {1u, 8u, 16u, 64u, 256u, 4096u}) {
        native::FArrayCounter c(K);
        t.row({"add", fmt(K), fmt(1 + c.height()),
               fmt(native::perf::solo_ns_per_call([&] { c.add(0, 1); },
                                                  kWindow))});
    }
    for (const std::uint32_t K : {1u, 256u, 4096u}) {
        native::FArrayCounter c(K);
        c.add(0, 42);
        t.row({"read", fmt(K), fmt(0),
               fmt(native::perf::solo_ns_per_call([&] { (void)c.read(); },
                                                  kWindow),
                   2)});
    }
    t.print();
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("counter", argc, argv, {});
    simulated_tables(kit);
    native_table();
    return kit.finish();
}
