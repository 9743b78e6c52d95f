// E7 -- write-through vs write-back (paper Section 2: "Our results apply to
// both the write-through and write-back CC coherence protocols").
//
// Same A_f workloads under both protocols: the absolute RMR counts differ
// by bounded constants, the asymptotic shape (flat measured/predicted
// ratio) is identical. Cells run on the parallel sweep runner (--jobs N);
// results are bit-identical for every N.
#include <bit>
#include <iostream>
#include <vector>

#include "harness/bench_kit.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

double log2_of(std::uint32_t x) {
    return x <= 1 ? 1.0 : static_cast<double>(std::bit_width(x - 1));
}

}  // namespace

int main(int argc, char** argv) {
    bench::Kit kit("protocols", argc, argv, {"--jobs"});
    std::cout << "bench_protocols: A_f RMRs under write-through vs "
                 "write-back (same workload, f = sqrt n, jobs="
              << kit.jobs() << ")\n\n";

    const std::vector<std::uint32_t> ns = {16u, 64u, 256u, 1024u};
    std::vector<ExperimentConfig> cfgs;
    std::vector<std::uint32_t> fs;
    for (const std::uint32_t n : ns) {
        std::uint32_t f = 1;
        while (f * f < n) {
            ++f;
        }
        fs.push_back(f);
        for (const Protocol proto :
             {Protocol::WriteThrough, Protocol::WriteBack}) {
            ExperimentConfig cfg;
            cfg.lock = LockKind::Af;
            cfg.protocol = proto;
            cfg.n = n;
            cfg.m = 2;
            cfg.f = f;
            cfg.passages = 2;
            cfg.sched = SchedKind::RoundRobin;
            cfg.check_mutual_exclusion = false;
            cfgs.push_back(cfg);
        }
    }
    const auto res = run_experiments(cfgs, kit.jobs());

    Table t({"n", "f", "rd WT", "rd WB", "WT/WB", "wr WT", "wr WB",
             "rdWT/logK", "rdWB/logK"});
    for (std::size_t i = 0; i < ns.size(); ++i) {
        const std::uint32_t n = ns[i];
        const std::uint32_t f = fs[i];
        const double rd_wt = res[2 * i].readers.mean_passage_rmrs;
        const double rd_wb = res[2 * i + 1].readers.mean_passage_rmrs;
        const double wr_wt = res[2 * i].writers.mean_passage_rmrs;
        const double wr_wb = res[2 * i + 1].writers.mean_passage_rmrs;
        const std::uint32_t K = (n + f - 1) / f;
        t.row({fmt(n), fmt(f), fmt(rd_wt), fmt(rd_wb), fmt(rd_wt / rd_wb, 2),
               fmt(wr_wt), fmt(wr_wb), fmt(rd_wt / log2_of(K), 2),
               fmt(rd_wb / log2_of(K), 2)});
    }
    t.print();
    std::cout << "\n(WT/WB ratio stays a bounded constant; both ratio "
                 "columns stay flat -> same asymptotics.)\n";
    return kit.finish();
}
