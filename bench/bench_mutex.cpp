// E6 -- the writers' mutex substrate WL (paper line 2, [21]).
//
// Tournament (Peterson tree, read/write only): Θ(log m) RMRs per passage,
// solo and contended. TAS baseline: RMRs per passage grow with contention.
// Exit-code checks (exit 1, named on stderr), under each protocol: the
// tree's contended RMRs per passage divided by ceil(log2 m) spread at most
// 1.5x over m = 2..64, and TAS's RMRs per passage grow at least 1.9x per
// doubling of m from 8 to 64.
#include <algorithm>
#include <bit>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_kit.hpp"
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

/// The E6 checks over one protocol's column of tree RMRs per log2 m
/// (m = 2..64) and TAS RMRs (m = 8..64, doubling).
void check_protocol(bench::Kit& kit, Protocol proto,
                    const std::vector<double>& tree_per_log,
                    const std::vector<double>& tas) {
    const std::string at = "E6 " + to_string(proto) + ": ";
    const auto [lo, hi] =
        std::minmax_element(tree_per_log.begin(), tree_per_log.end());
    kit.check(*hi <= 1.5 * *lo,
              at + "tournament RMRs per log2 m spread " + fmt(*hi / *lo, 2) +
                  "x over m = 2..64 (at most 1.5x)");
    for (std::size_t i = 1; i < tas.size(); ++i) {
        const auto m = std::uint32_t{8} << i;
        kit.check(tas[i] >= 1.9 * tas[i - 1],
                  at + "tas RMRs grow " + fmt(tas[i] / tas[i - 1], 2) +
                      "x from m=" + std::to_string(m / 2) + " to m=" +
                      std::to_string(m) + " (at least 1.9x)");
    }
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("mutex", argc, argv, {});
    std::cout << "bench_mutex: the WL substrate -- Peterson tournament "
                 "(read/write only) vs TAS\n";
    for (const Protocol proto :
         {Protocol::WriteThrough, Protocol::WriteBack}) {
        std::cout << "\n=== E6: RMRs per passage vs m, protocol = "
                  << to_string(proto) << " (fair round-robin, all "
                  << "processes contending) ===\n";
        Table t({"m", "log2(m)", "tournament RMR", "mcs RMR", "tas RMR",
                 "tournament steps", "mcs steps", "tas steps"});
        std::vector<double> tree_per_log;
        std::vector<double> tas_from_8;
        for (const std::uint32_t m : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            const auto tour =
                measure<mutex::TournamentSimMutex>(proto, m, 8);
            const auto mcs = measure<mutex::McsSimMutex>(proto, m, 8);
            const auto tas = measure<mutex::TasSimMutex>(proto, m, 8);
            const std::uint32_t log_m =
                m <= 1 ? 0u
                       : static_cast<std::uint32_t>(std::bit_width(m - 1));
            t.row({fmt(m), fmt(log_m), fmt(tour.rmrs_per_passage),
                   fmt(mcs.rmrs_per_passage), fmt(tas.rmrs_per_passage),
                   fmt(tour.steps_per_passage), fmt(mcs.steps_per_passage),
                   fmt(tas.steps_per_passage)});
            if (log_m > 0) {
                tree_per_log.push_back(tour.rmrs_per_passage / log_m);
            }
            if (m >= 8) {
                tas_from_8.push_back(tas.rmrs_per_passage);
            }
        }
        t.print();
        check_protocol(kit, proto, tree_per_log, tas_from_8);
    }
    std::cout << "\n(The tournament column must grow ~linearly in log2(m); "
                 "the TAS column grows super-logarithmically.)\n";
    return kit.finish();
}
