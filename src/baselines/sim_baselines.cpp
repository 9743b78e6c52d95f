#include "baselines/sim_baselines.hpp"

namespace rwr::baselines {

// --- CentralizedSimRWLock ----------------------------------------------------

CentralizedSimRWLock::CentralizedSimRWLock(Memory& mem, std::uint32_t n,
                                           std::uint32_t m)
    : state_(mem.allocate("central.state", 0)) {
    (void)n;
    (void)m;
}

sim::SimTask<void> CentralizedSimRWLock::reader_entry(sim::Process& p) {
    for (;;) {
        const Word cur = co_await p.read(state_);
        if ((cur & kWriterBit) != 0) {
            continue;  // Writer present: spin.
        }
        const Word prior = co_await p.cas(state_, cur, cur + 1);
        if (prior == cur) {
            co_return;
        }
    }
}

sim::SimTask<void> CentralizedSimRWLock::reader_exit(sim::Process& p) {
    // CAS-retry decrement: under the adversary this is the Θ(n)-RMR exit
    // the tradeoff predicts for a 1-RMR-writer-probe lock.
    for (;;) {
        const Word cur = co_await p.read(state_);
        const Word prior = co_await p.cas(state_, cur, cur - 1);
        if (prior == cur) {
            co_return;
        }
    }
}

sim::SimTask<void> CentralizedSimRWLock::writer_entry(sim::Process& p) {
    for (;;) {
        const Word cur = co_await p.read(state_);
        if (cur != 0) {
            continue;  // Readers present or writer holds it: spin.
        }
        const Word prior = co_await p.cas(state_, 0, kWriterBit);
        if (prior == 0) {
            co_return;
        }
    }
}

sim::SimTask<void> CentralizedSimRWLock::writer_exit(sim::Process& p) {
    // Only the holding writer clears the bit; readers CAS but their deltas
    // never touch the writer bit while it is set (they spin instead).
    for (;;) {
        const Word cur = co_await p.read(state_);
        const Word prior = co_await p.cas(state_, cur, cur & ~kWriterBit);
        if (prior == cur) {
            co_return;
        }
    }
}

// --- FaaSimRWLock --------------------------------------------------------------

FaaSimRWLock::FaaSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m)
    : wl_(mem, "faa.WL", m),
      state_(mem.allocate("faa.state", 0)),
      rgate_(mem.allocate("faa.rgate", 1)),
      wgate_(mem.allocate("faa.wgate", 0)) {
    (void)n;
}

sim::SimTask<void> FaaSimRWLock::reader_entry(sim::Process& p) {
    for (;;) {
        const Word prior = co_await p.fetch_add(state_, 1);
        if ((prior & kWriterBit) == 0) {
            co_return;  // Fast path: one FAA.
        }
        // A writer is present (or arriving): back out and wait at the gate.
        // The backout decrement must signal a draining writer exactly like
        // a CS exit does -- the writer's drain count includes our transient
        // increment if its FAA landed between our two.
        const Word backout = co_await p.fetch_add(state_, static_cast<Word>(-1));
        if ((backout & kWriterBit) != 0 && (backout & 0xffffffffu) == 1) {
            co_await p.write(wgate_, 1);
        }
        for (;;) {
            const Word gate = co_await p.read(rgate_);
            if (gate == 1) {
                break;
            }
        }
    }
}

sim::SimTask<void> FaaSimRWLock::reader_exit(sim::Process& p) {
    // O(1) RMRs unconditionally -- the FAA evasion of Theorem 5.
    const Word prior = co_await p.fetch_add(state_, static_cast<Word>(-1));
    const bool writer_waiting = (prior & kWriterBit) != 0;
    const bool last_reader = (prior & 0xffffffffu) == 1;
    if (writer_waiting && last_reader) {
        co_await p.write(wgate_, 1);  // Wake the draining writer.
    }
}

sim::SimTask<void> FaaSimRWLock::writer_entry(sim::Process& p) {
    co_await wl_.enter(p, p.role_index());
    co_await p.write(rgate_, 0);  // Close the gate before raising the bit.
    co_await p.write(wgate_, 0);
    const Word prior = co_await p.fetch_add(state_, kWriterBit);
    if ((prior & 0xffffffffu) != 0) {
        // In-flight readers: the last one flips wgate_ on its way out. The
        // gate only says some reader drained a writer's readers: one that
        // backed out under the previous writer can set it after our reset
        // while a reader that entered between the two writers is still in
        // the CS. The count in state_ decides, as in the native FaaRWLock.
        for (;;) {
            const Word g = co_await p.read(wgate_);
            if (g != 1) {
                continue;
            }
            const Word s = co_await p.read(state_);
            if ((s & 0xffffffffu) == 0) {
                break;
            }
        }
    }
}

sim::SimTask<void> FaaSimRWLock::writer_exit(sim::Process& p) {
    co_await p.fetch_add(state_, static_cast<Word>(0) - kWriterBit);
    co_await p.write(rgate_, 1);  // Reopen for readers.
    co_await wl_.exit(p, p.role_index());
}

// --- ReaderPrefSimRWLock --------------------------------------------------------

ReaderPrefSimRWLock::ReaderPrefSimRWLock(Memory& mem, std::uint32_t n,
                                         std::uint32_t m)
    : rmutex_(mem, "rp.rmutex", n),
      wmutex_(mem, "rp.wmutex", m + 1),
      rcount_(mem.allocate("rp.rcount", 0)),
      rep_slot_(m) {}

sim::SimTask<void> ReaderPrefSimRWLock::reader_entry(sim::Process& p) {
    co_await rmutex_.enter(p, p.role_index());
    const Word rc = co_await p.read(rcount_);
    co_await p.write(rcount_, rc + 1);
    if (rc == 0) {
        // First reader in: take the write lock on the group's behalf.
        co_await wmutex_.enter(p, rep_slot_);
    }
    co_await rmutex_.exit(p, p.role_index());
}

sim::SimTask<void> ReaderPrefSimRWLock::reader_exit(sim::Process& p) {
    co_await rmutex_.enter(p, p.role_index());
    const Word rc = co_await p.read(rcount_);
    co_await p.write(rcount_, rc - 1);
    if (rc == 1) {
        // Last reader out: release the write lock for the group.
        co_await wmutex_.exit(p, rep_slot_);
    }
    co_await rmutex_.exit(p, p.role_index());
}

sim::SimTask<void> ReaderPrefSimRWLock::writer_entry(sim::Process& p) {
    co_await wmutex_.enter(p, p.role_index());
}

sim::SimTask<void> ReaderPrefSimRWLock::writer_exit(sim::Process& p) {
    co_await wmutex_.exit(p, p.role_index());
}

// --- MutexSimRWLock -------------------------------------------------------------

MutexSimRWLock::MutexSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m)
    : mx_(mem, "bigmx", n + m), n_(n) {}

sim::SimTask<void> MutexSimRWLock::reader_entry(sim::Process& p) {
    co_await mx_.enter(p, p.role_index());
}
sim::SimTask<void> MutexSimRWLock::reader_exit(sim::Process& p) {
    co_await mx_.exit(p, p.role_index());
}
sim::SimTask<void> MutexSimRWLock::writer_entry(sim::Process& p) {
    co_await mx_.enter(p, n_ + p.role_index());
}
sim::SimTask<void> MutexSimRWLock::writer_exit(sim::Process& p) {
    co_await mx_.exit(p, n_ + p.role_index());
}

}  // namespace rwr::baselines
