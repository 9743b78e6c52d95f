// E6 -- the writers' mutex substrate WL (paper line 2, [21]).
//
// Tournament (Peterson tree, read/write only): Θ(log m) RMRs per passage,
// solo and contended. TAS baseline: RMRs per passage grow with contention.
#include <bit>
#include <iostream>
#include <memory>

#include "harness/table.hpp"
#include "mutex/sim_mutex.hpp"
#include "sim/passage.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct Point {
    double steps_per_passage;
    double rmrs_per_passage;
};

template <typename MutexT>
MutexT make_mutex(Memory& mem, std::uint32_t m);

template <>
mutex::TournamentSimMutex make_mutex(Memory& mem, std::uint32_t m) {
    return mutex::TournamentSimMutex(mem, "mx", m);
}
template <>
mutex::TasSimMutex make_mutex(Memory& mem, std::uint32_t m) {
    (void)m;
    return mutex::TasSimMutex(mem, "mx");
}
template <>
mutex::McsSimMutex make_mutex(Memory& mem, std::uint32_t m) {
    return mutex::McsSimMutex(mem, "mx", m);
}

template <typename MutexT>
Point measure(Protocol proto, std::uint32_t m, int count) {
    sim::System sys(proto);
    MutexT mx = make_mutex<MutexT>(sys.memory(), m);
    mutex::MutexPassage target{mx};
    sim::DriveConfig dc;
    dc.passages = static_cast<std::uint64_t>(count);
    for (std::uint32_t s = 0; s < m; ++s) {
        sim::install(target, sys.add_process(sim::Role::Writer), dc);
    }
    sim::RoundRobinScheduler rr;
    sim::run(sys, rr, 100'000'000);
    const double denom = static_cast<double>(m) * count;
    return {static_cast<double>(sys.memory().total_steps()) / denom,
            static_cast<double>(sys.memory().total_rmrs()) / denom};
}

}  // namespace

int main() {
    std::cout << "bench_mutex: the WL substrate -- Peterson tournament "
                 "(read/write only) vs TAS\n";
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E6: RMRs per passage vs m, protocol = "
                  << to_string(proto) << " (fair round-robin, all "
                  << "processes contending) ===\n";
        Table t({"m", "log2(m)", "tournament RMR", "mcs RMR", "tas RMR",
                 "tournament steps", "mcs steps", "tas steps"});
        for (const std::uint32_t m : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            const auto tour =
                measure<mutex::TournamentSimMutex>(proto, m, 8);
            const auto mcs = measure<mutex::McsSimMutex>(proto, m, 8);
            const auto tas = measure<mutex::TasSimMutex>(proto, m, 8);
            t.row({fmt(m),
                   fmt(m <= 1 ? 0u
                              : static_cast<std::uint32_t>(
                                    std::bit_width(m - 1))),
                   fmt(tour.rmrs_per_passage), fmt(mcs.rmrs_per_passage),
                   fmt(tas.rmrs_per_passage), fmt(tour.steps_per_passage),
                   fmt(mcs.steps_per_passage), fmt(tas.steps_per_passage)});
        }
        t.print();
    }
    std::cout << "\n(The tournament column must grow ~linearly in log2(m); "
                 "the TAS column grows super-logarithmically.)\n";
    return 0;
}
