#include "dist/sim_table.hpp"

#include <string>

#include "harness/pool.hpp"
#include "sim/passage.hpp"
#include "sim/system.hpp"

namespace rwr::dist {

using sim::Process;
using sim::SimTask;

DistTableSim::DistTableSim(Memory& mem, const TableConfig& cfg,
                           ProcId server_base)
    : lay_(cfg) {
    vars_.reserve(lay_.total_words());
    for (std::uint32_t seg = 0; seg < lay_.num_segments(); ++seg) {
        const ProcId home = seg < cfg.shards
                                ? static_cast<ProcId>(server_base + seg)
                                : static_cast<ProcId>(seg - cfg.shards);
        for (std::uint32_t off = 0; off < lay_.seg_words(seg); ++off) {
            vars_.push_back(mem.allocate("dist/seg" + std::to_string(seg) +
                                             "/w" + std::to_string(off),
                                         0, home));
        }
    }
}

SimTask<void> DistTableSim::wait_gate(Session& s, VarId gate, Word epoch) {
    Word g = epoch;
    while (g == epoch) {
        g = co_await read(s, gate);
    }
}

#define RWR_TABLE DistTableSim
#define RWR_STEP co_await
#define RWR_RETURN co_return
#include "dist/table_protocol.inc"

// ---- Cell runner ----------------------------------------------------------

namespace {

/// drive() target: session s (pid s) runs its OpStream's ops. entry()
/// draws the next op; the op's role picks the acquire/release pair and the
/// CS dwell.
struct SessionOps {
    /// One session's table handle, op stream, op in flight and held
    /// writer ticket.
    struct Client {
        DistTableSim::Session session;
        OpStream stream;
        OpStream::LoadOp op{};
        std::uint64_t ticket = 0;
    };

    DistTableSim& tab;
    const DistSimConfig& cfg;
    std::vector<Client> clients;  ///< Indexed by pid.
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;

    SimTask<void> entry(Process& p) {
        Client& c = clients[p.id()];
        c.op = c.stream.next_op(cfg.table.num_locks(), cfg.reader_pct);
        if (c.op.reader) {
            co_await tab.reader_acquire(c.session, c.op.lock_index);
        } else {
            c.ticket = co_await tab.writer_acquire(c.session, c.op.lock_index);
        }
    }
    SimTask<void> exit(Process& p) {
        Client& c = clients[p.id()];
        if (c.op.reader) {
            co_await tab.reader_release(c.session, c.op.lock_index);
            ++read_ops;
        } else {
            co_await tab.writer_release(c.session, c.op.lock_index, c.ticket);
            ++write_ops;
        }
    }
    /// A read CS dwells one local step, a write CS cfg.writer_cs_steps.
    [[nodiscard]] std::uint64_t cs_steps(const Process& p) const {
        return clients[p.id()].op.reader ? 1 : cfg.writer_cs_steps;
    }
};

}  // namespace

DistSimResult run_dist_sim(const DistSimConfig& cfg) {
    sim::System sys(Protocol::Dsm);
    const std::uint32_t sessions = cfg.table.sessions;
    // Client pids [0, sessions); shard homes are *virtual* pids at
    // server_base + shard -- never stepped, so total RMRs are all clients'.
    const auto server_base = static_cast<ProcId>(sessions);
    DistTableSim table(sys.memory(), cfg.table, server_base);
    SessionOps load{table, cfg, {}};
    load.clients.reserve(sessions);
    sim::DriveConfig dc;
    dc.passages = cfg.ops_per_session;
    for (std::uint32_t s = 0; s < sessions; ++s) {
        Process& p = sys.add_process(sim::Role::Writer);
        load.clients.push_back({{p, s}, OpStream(cfg.seed, s)});
        sim::install(load, p, dc);
    }
    sim::RunPlan plan;  // Round-robin.
    plan.max_steps = cfg.max_steps;
    const sim::PlanResult run = sim::run_plan(sys, plan);

    DistSimResult res;
    res.finished = run.finished;
    res.steps = run.steps;
    res.read_ops = load.read_ops;
    res.write_ops = load.write_ops;
    res.total_ops = res.read_ops + res.write_ops;
    res.witness_violations = table.witness_violations();
    res.session_rmrs.resize(sessions);
    for (std::uint32_t s = 0; s < sessions; ++s) {
        res.session_rmrs[s] = sys.memory().rmrs_by(static_cast<ProcId>(s));
        res.network_rmrs += res.session_rmrs[s];
    }
    res.network_rmrs_per_op =
        res.total_ops == 0
            ? 0.0
            : static_cast<double>(res.network_rmrs) /
                  static_cast<double>(res.total_ops);
    return res;
}

std::vector<DistSimResult> run_dist_sim_grid(
    const std::vector<DistSimConfig>& cfgs, unsigned jobs) {
    std::vector<DistSimResult> out(cfgs.size());
    harness::parallel_for(cfgs.size(), jobs, [&](std::size_t i) {
        out[i] = run_dist_sim(cfgs[i]);
    });
    return out;
}

}  // namespace rwr::dist
