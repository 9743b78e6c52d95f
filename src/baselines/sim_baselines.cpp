#include "baselines/sim_baselines.hpp"

namespace rwr::baselines {

// --- CentralizedSimRWLock ----------------------------------------------------

CentralizedSimRWLock::CentralizedSimRWLock(Memory& mem, std::uint32_t n,
                                           std::uint32_t m)
    : state_(mem.allocate("central.state", 0)) {
    (void)n;
    (void)m;
}

template <class Free, class Next>
sim::SimTask<void> CentralizedSimRWLock::update_when(sim::Process& p,
                                                     Free free, Next next) {
    for (;;) {
        const Word cur = co_await p.read(state_);
        if (!free(cur)) {
            continue;  // Spin.
        }
        const Word prior = co_await p.cas(state_, cur, next(cur));
        if (prior == cur) {
            co_return;
        }
    }
}

sim::SimTask<void> CentralizedSimRWLock::reader_entry(sim::Process& p) {
    return update_when(
        p, [](Word w) { return (w & kWriterBit) == 0; },  // No writer.
        [](Word w) { return w + 1; });
}

sim::SimTask<void> CentralizedSimRWLock::reader_exit(sim::Process& p) {
    // CAS-retry decrement: under the adversary this is the Θ(n)-RMR exit
    // the tradeoff predicts for a 1-RMR-writer-probe lock.
    return update_when(
        p, [](Word) { return true; }, [](Word w) { return w - 1; });
}

sim::SimTask<void> CentralizedSimRWLock::writer_entry(sim::Process& p) {
    return update_when(
        p, [](Word w) { return w == 0; },  // No reader, no writer.
        [](Word) { return kWriterBit; });
}

sim::SimTask<void> CentralizedSimRWLock::writer_exit(sim::Process& p) {
    // Only the holding writer clears the bit; readers CAS but their deltas
    // never touch the writer bit while it is set (they spin instead).
    return update_when(
        p, [](Word) { return true; }, [](Word w) { return w & ~kWriterBit; });
}

// --- FaaSimRWLock and PhaseFairSimRWLock -------------------------------------

FaaSimRWLock::FaaSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m,
                           FaaMutant mutant)
    : wl_(mem, "faa.WL", m),
      state_(mem.allocate("faa.state", 0)),
      rgate_(mem.allocate("faa.rgate", 1)),
      wgate_(mem.allocate("faa.wgate", 0)),
      mutant_(mutant) {
    (void)n;
}

PhaseFairSimRWLock::PhaseFairSimRWLock(Memory& mem, std::uint32_t n,
                                       std::uint32_t m)
    : rin_(mem.allocate("pf.rin", 0)),
      rout_(mem.allocate("pf.rout", 0)),
      win_(mem.allocate("pf.win", 0)),
      wout_(mem.allocate("pf.wout", 0)),
      wbits_(m, 0) {
    (void)n;
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
