// The one-word steps of the protocol texts (core/af_protocol.inc,
// counter/farray_protocol.inc, mutex/tournament_protocol.inc,
// baselines/faa_protocol.inc, baselines/phase_fair_protocol.inc) over
// std::atomic, and their one way to wait. Every native executor inherits
// the steps. A text passes its caller to each step, which the atomics do
// not need; cas returns the prior value, as the simulator's does.
#pragma once

#include <atomic>
#include <type_traits>

#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/telemetry.hpp"

namespace rwr::native {

/// The caller of a text that needs no identity: the calling thread.
struct ThisThread {};

struct AtomicSteps {
    /// A text's step is a plain call. An executor whose text needs the
    /// caller's id or probe declares its own Caller.
    template <class T>
    using Task = T;
    using Caller = ThisThread;

    template <class C, class T>
    static T load(const C&, const std::atomic<T>& x) {
        return x.load();
    }
    template <class C, class T>
    static void store(const C&, std::atomic<T>& x, std::type_identity_t<T> v,
                      std::memory_order order = std::memory_order_seq_cst) {
        x.store(v, order);
    }
    template <class C, class T>
    static T cas(const C&, std::atomic<T>& x, std::type_identity_t<T> expected,
                 std::type_identity_t<T> desired) {
        x.compare_exchange_strong(expected, desired);
        return expected;
    }
    template <class C, class T>
    static T fetch_add(const C&, std::atomic<T>& x, std::type_identity_t<T> d) {
        return x.fetch_add(d);
    }
    template <class C, class T>
    static T fetch_sub(const C&, std::atomic<T>& x, std::type_identity_t<T> d) {
        return x.fetch_sub(d);
    }
};

/// A text's wait: marks the acquisition contended, then spins and parks on
/// `spot` until done() or `deadline`; false when the deadline came first.
template <class Done>
bool wait_contended(ParkingSpot& spot, Deadline& deadline,
                    TelemetryProbe& probe, LockTelemetry* t, Done&& done) {
    probe.contended();
    Backoff backoff;
    const bool ok = wait_until(spot, deadline, t, backoff, done);
    probe.note_backoff(backoff);
    return ok;
}

/// The same, with no deadline.
template <class Done>
void wait_contended(ParkingSpot& spot, TelemetryProbe& probe, LockTelemetry* t,
                    Done&& done) {
    Deadline never = Deadline::infinite();
    wait_contended(spot, never, probe, t, done);
}

}  // namespace rwr::native
