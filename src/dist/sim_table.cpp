#include "dist/sim_table.hpp"

#include "harness/pool.hpp"
#include "sim/passage.hpp"
#include "sim/system.hpp"

namespace rwr::dist {

using sim::Process;
using sim::SimTask;

DistTableSim::DistTableSim(Memory& mem, const TableConfig& cfg,
                           ProcId server_base)
    : lay_(cfg),
      svm_(mem, cfg.shards, cfg.sessions, seg_words_of(lay_), server_base),
      held_ticket_(cfg.sessions, 0) {}

SimTask<void> DistTableSim::wait_gate(Process& p, std::uint32_t session,
                                      Word epoch) {
    const VarId gate = v(lay_.gate_word(session));
    for (;;) {
        const Word g = co_await p.read(gate);
        if (g != epoch) {
            co_return;
        }
    }
}

SimTask<void> DistTableSim::writer_acquire(Process& p, std::uint32_t session,
                                           std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const VarId ticket_v = v(lay_.lock_word(lock, LockField::WTicket));
    const VarId grant_v = v(lay_.lock_word(lock, LockField::WGrant));
    const VarId gate_v = v(lay_.gate_word(session));

    const Word t = co_await p.fetch_add(ticket_v, 1);
    Word g = co_await p.read(grant_v);
    if (g != t) {
        if (homed) {
            // Register-then-recheck loop; the Dekker pairing with the
            // releaser's grant-write / slot-read makes the gate bump or the
            // grant visible, never neither.
            const VarId slot_v = v(lay_.wslot_word(lock, t));
            for (;;) {
                const Word epoch = co_await p.read(gate_v);
                co_await p.write(slot_v, TableLayout::encode_wslot(t, session));
                g = co_await p.read(grant_v);
                if (g == t) {
                    break;
                }
                co_await wait_gate(p, session, epoch);
            }
            // Clear the registration: we own slot t % sessions until our
            // ticket retires, and a stale encode would make a much later
            // releaser bump our gate spuriously (harmless but noisy).
            co_await p.write(slot_v, 0);
        } else {
            while (g != t) {
                g = co_await p.read(grant_v);
            }
        }
    }

    // Granted. Publish the drain flag, then wait out active readers.
    const VarId wflag_v = v(lay_.lock_word(lock, LockField::WFlag));
    const VarId rcount_v = v(lay_.lock_word(lock, LockField::RCount));
    co_await p.write(wflag_v, session + 1);
    for (;;) {
        Word rc = co_await p.read(rcount_v);
        if (rc == 0) {
            break;
        }
        if (homed) {
            const Word epoch = co_await p.read(gate_v);
            rc = co_await p.read(rcount_v);
            if (rc == 0) {
                break;
            }
            co_await wait_gate(p, session, epoch);
        }
    }

    const VarId witness_v = v(lay_.lock_word(lock, LockField::WWitness));
    const Word w = co_await p.cas(witness_v, 0, session + 1);
    if (w != 0) {
        ++violations_;
    }
    held_ticket_[session] = t;
}

SimTask<void> DistTableSim::writer_release(Process& p, std::uint32_t session,
                                           std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const Word t = held_ticket_[session];

    const VarId witness_v = v(lay_.lock_word(lock, LockField::WWitness));
    const Word w = co_await p.cas(witness_v, session + 1, 0);
    if (w != session + 1) {
        ++violations_;
    }

    co_await p.write(v(lay_.lock_word(lock, LockField::WFlag)), 0);
    co_await p.write(v(lay_.lock_word(lock, LockField::WGrant)), t + 1);
    if (!homed) {
        co_return;  // Waiters poll WGrant / WFlag remotely.
    }

    // Hand the grant to the registered next writer, if any.
    const Word sv = co_await p.read(v(lay_.wslot_word(lock, t + 1)));
    if (TableLayout::wslot_matches(sv, t + 1)) {
        const std::uint32_t next = TableLayout::wslot_session(sv);
        co_await p.fetch_add(v(lay_.gate_word(next)), 1);
    }

    // Batch-wake the registered readers.
    const Word rw = co_await p.read(v(lay_.lock_word(lock, LockField::RWaiters)));
    if (rw != 0) {
        for (std::uint32_t bw = 0; bw < lay_.bitmap_words(); ++bw) {
            const Word bits = co_await p.read(v(lay_.rbitmap_word(lock, bw)));
            for (std::uint32_t b = 0; b < 64; ++b) {
                if ((bits >> b) & 1) {
                    const std::uint32_t rs = bw * 64 + b;
                    co_await p.fetch_add(v(lay_.gate_word(rs)), 1);
                }
            }
        }
    }
}

SimTask<void> DistTableSim::reader_acquire(Process& p, std::uint32_t session,
                                           std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const VarId wflag_v = v(lay_.lock_word(lock, LockField::WFlag));
    const VarId rcount_v = v(lay_.lock_word(lock, LockField::RCount));
    const VarId gate_v = v(lay_.gate_word(session));

    for (;;) {
        Word f = co_await p.read(wflag_v);
        if (f == 0) {
            co_await p.fetch_add(rcount_v, 1);
            f = co_await p.read(wflag_v);
            if (f == 0) {
                const Word w = co_await p.read(
                    v(lay_.lock_word(lock, LockField::WWitness)));
                if (w != 0) {
                    ++violations_;
                }
                co_return;  // Entered.
            }
            // A writer appeared between our increment and recheck: back out,
            // and if we were the count the draining writer is waiting on,
            // wake it.
            const Word prev = co_await p.fetch_add(rcount_v, ~Word{0});
            if (prev == 1 && homed) {
                co_await p.fetch_add(v(lay_.gate_word(
                                         static_cast<std::uint32_t>(f) - 1)),
                                     1);
            }
        }
        if (homed) {
            // Register in the wait bitmap (bit FAA: each session owns its
            // bit), then the Dekker recheck against the releaser's
            // clear-flag-then-scan order.
            const VarId bit_v =
                v(lay_.rbitmap_word(lock, lay_.rbit_word_of(session)));
            const Word mask = TableLayout::rbit_mask(session);
            const VarId rwait_v =
                v(lay_.lock_word(lock, LockField::RWaiters));
            const Word epoch = co_await p.read(gate_v);
            co_await p.fetch_add(bit_v, mask);
            co_await p.fetch_add(rwait_v, 1);
            const Word f2 = co_await p.read(wflag_v);
            if (f2 != 0) {
                co_await wait_gate(p, session, epoch);
            }
            co_await p.fetch_add(bit_v, Word{0} - mask);
            co_await p.fetch_add(rwait_v, ~Word{0});
        } else {
            Word f2 = co_await p.read(wflag_v);
            while (f2 != 0) {
                f2 = co_await p.read(wflag_v);
            }
        }
    }
}

SimTask<void> DistTableSim::reader_release(Process& p, std::uint32_t session,
                                           std::uint32_t lock) {
    (void)session;
    const bool homed = lay_.config().homed;
    const Word w =
        co_await p.read(v(lay_.lock_word(lock, LockField::WWitness)));
    if (w != 0) {
        ++violations_;
    }
    const Word prev = co_await p.fetch_add(
        v(lay_.lock_word(lock, LockField::RCount)), ~Word{0});
    if (prev == 1 && homed) {
        const Word f =
            co_await p.read(v(lay_.lock_word(lock, LockField::WFlag)));
        if (f != 0) {
            co_await p.fetch_add(
                v(lay_.gate_word(static_cast<std::uint32_t>(f) - 1)), 1);
        }
    }
}

// ---- Cell runner ----------------------------------------------------------

namespace {

/// drive() target: session s (pid s) runs its OpStream's ops. drive()
/// draws the next op when it builds the attempt; the op's role picks the
/// acquire/release pair and the CS dwell.
struct SessionOps {
    DistTableSim& tab;
    const DistSimConfig& cfg;
    std::vector<OpStream> streams;
    std::vector<OpStream::LoadOp> current;  ///< Each session's op in flight.
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;

    SimTask<void> entry(Process& p) {
        const OpStream::LoadOp op = current[p.id()] =
            streams[p.id()].next_op(cfg.table.num_locks(), cfg.reader_pct);
        return op.reader ? tab.reader_acquire(p, p.id(), op.lock_index)
                         : tab.writer_acquire(p, p.id(), op.lock_index);
    }
    SimTask<void> exit(Process& p) {
        const OpStream::LoadOp op = current[p.id()];
        if (op.reader) {
            co_await tab.reader_release(p, p.id(), op.lock_index);
            ++read_ops;
        } else {
            co_await tab.writer_release(p, p.id(), op.lock_index);
            ++write_ops;
        }
    }
    /// A read CS dwells one local step, a write CS cfg.writer_cs_steps.
    [[nodiscard]] std::uint64_t cs_steps(const Process& p) const {
        return current[p.id()].reader ? 1 : cfg.writer_cs_steps;
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
    SessionOps load{table, cfg, {}, {}};
    sim::DriveConfig dc;
    dc.passages = cfg.ops_per_session;
    for (std::uint32_t s = 0; s < sessions; ++s) {
        load.streams.emplace_back(cfg.seed, s);
        load.current.emplace_back();
        sim::install(load, sys.add_process(sim::Role::Writer), dc);
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
