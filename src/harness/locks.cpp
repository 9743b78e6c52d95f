#include "harness/locks.hpp"

#include <algorithm>
#include <stdexcept>

#include "baselines/phase_fair.hpp"
#include "baselines/sim_baselines.hpp"
#include "core/af_lock_sim.hpp"

namespace rwr::harness {

std::string to_string(LockKind k) {
    switch (k) {
        case LockKind::Af: return "A_f";
        case LockKind::AfDsm: return "A_f+dsm";
        case LockKind::Centralized: return "centralized";
        case LockKind::Faa: return "faa";
        case LockKind::PhaseFair: return "phase-fair";
        case LockKind::ReaderPref: return "reader-pref";
        case LockKind::BigMutex: return "big-mutex";
    }
    return "?";
}

const std::vector<LockKind>& all_lock_kinds() {
    static const std::vector<LockKind> kinds{
        LockKind::Af, LockKind::Centralized, LockKind::Faa,
        LockKind::PhaseFair, LockKind::ReaderPref, LockKind::BigMutex};
    return kinds;
}

std::unique_ptr<sim::SimRWLock> make_sim_lock(LockKind kind, Memory& mem,
                                              std::uint32_t n,
                                              std::uint32_t m,
                                              std::uint32_t f) {
    switch (kind) {
        case LockKind::Af:
        case LockKind::AfDsm: {
            core::AfParams params;
            params.n = n;
            params.m = m;
            params.f = std::clamp<std::uint32_t>(f, 1, n);
            params.dsm_local_spin = (kind == LockKind::AfDsm);
            return std::make_unique<core::AfSimLock>(mem, params);
        }
        case LockKind::Centralized:
            return std::make_unique<baselines::CentralizedSimRWLock>(mem, n, m);
        case LockKind::Faa:
            return std::make_unique<baselines::FaaSimRWLock>(mem, n, m);
        case LockKind::PhaseFair:
            return std::make_unique<baselines::PhaseFairSimRWLock>(mem, n, m);
        case LockKind::ReaderPref:
            return std::make_unique<baselines::ReaderPrefSimRWLock>(mem, n, m);
        case LockKind::BigMutex:
            return std::make_unique<baselines::MutexSimRWLock>(mem, n, m);
    }
    throw std::invalid_argument("make_sim_lock: unknown kind");
}

}  // namespace rwr::harness
