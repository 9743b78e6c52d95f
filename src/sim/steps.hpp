// The one-word steps of the protocol texts (core/af_protocol.inc,
// counter/farray_protocol.inc, mutex/tournament_protocol.inc,
// baselines/faa_protocol.inc, baselines/phase_fair_protocol.inc) as
// simulator steps. Every sim executor inherits them; each returns the step
// for the text to await, so a text adds no coroutine frame per step. The
// memory order a text names is dropped: the simulated memory is
// sequentially consistent.
#pragma once

#include <atomic>

#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

struct SimSteps {
    /// A text's step is awaited, and its caller is the process.
    template <class T>
    using Task = SimTask<T>;
    using Caller = Process&;

    static auto load(Process& p, VarId v) { return p.read(v); }
    static auto store(Process& p, VarId v, Word w,
                      std::memory_order = std::memory_order_seq_cst) {
        return p.write(v, w);
    }
    /// Returns the prior value.
    static auto cas(Process& p, VarId v, Word expected, Word desired) {
        return p.cas(v, expected, desired);
    }
    static auto fetch_add(Process& p, VarId v, Word delta) {
        return p.fetch_add(v, delta);
    }
    static auto fetch_sub(Process& p, VarId v, Word delta) {
        return p.fetch_add(v, Word{0} - delta);
    }

    /// A wait: runs `done`, a test of a step or two returning
    /// SimTask<bool>, until it returns true.
    template <class Done>
    static SimTask<void> spin(Done done) {
        for (;;) {
            const bool ok = co_await done();
            if (ok) {
                co_return;
            }
        }
    }
};

}  // namespace rwr::sim
