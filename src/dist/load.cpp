#include "dist/load.hpp"

#include <chrono>
#include <vector>

#include "harness/pool.hpp"

namespace rwr::dist {

LoadResult run_load(NativeTable& table, const LoadConfig& cfg) {
    using Clock = std::chrono::steady_clock;
    const TableConfig& tc = table.layout().config();
    const unsigned jobs = cfg.jobs == 0 ? harness::default_jobs() : cfg.jobs;

    std::vector<NativeTable::Session> sessions(tc.sessions);
    for (std::uint32_t s = 0; s < tc.sessions; ++s) {
        sessions[s].id = s;
    }

    const auto t0 = Clock::now();
    harness::parallel_for(tc.sessions, jobs, [&](std::size_t i) {
        NativeTable::Session& s = sessions[i];
        OpStream stream(cfg.seed, static_cast<std::uint32_t>(i));
        for (std::uint32_t op = 0; op < cfg.ops_per_session; ++op) {
            const OpStream::LoadOp lo =
                stream.next_op(tc.num_locks(), cfg.reader_pct);
            const auto a0 = Clock::now();
            std::uint64_t ticket = 0;
            if (lo.reader) {
                table.reader_acquire(s, lo.lock_index);
            } else {
                ticket = table.writer_acquire(s, lo.lock_index);
            }
            s.stats.record_acquire_ns(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - a0)
                    .count()));
            if (lo.reader) {
                table.reader_release(s, lo.lock_index);
                ++s.stats.read_ops;
            } else {
                table.writer_release(s, lo.lock_index, ticket);
                ++s.stats.write_ops;
            }
        }
    });
    const auto t1 = Clock::now();

    LoadResult res;
    for (const auto& s : sessions) {
        res.merged.merge(s.stats);
    }
    res.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    res.ops_per_sec =
        res.wall_ms <= 0.0
            ? 0.0
            : static_cast<double>(res.merged.total_ops()) * 1000.0 /
                  res.wall_ms;
    res.witness_violations = table.witness_violations();
    return res;
}

}  // namespace rwr::dist
