// A simulated process: coroutine driver + pending-operation slot + section
// state + per-section RMR statistics.
//
// The scheduler contract:
//   1. `start()` resumes the driver until it either registers its first
//      pending Op or finishes.
//   2. While `runnable()`, the scheduler may inspect `pending()` (this is
//      what makes the paper's adversary implementable: it pauses a reader
//      exactly when its *next* step would be an expanding step) and then ask
//      the System to execute it, which resumes the coroutine up to the next
//      suspension.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "rmr/op.hpp"
#include "rmr/stats.hpp"
#include "rmr/types.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

enum class Role : std::uint8_t { Reader, Writer };

[[nodiscard]] inline const char* to_string(Role r) {
    return r == Role::Reader ? "reader" : "writer";
}

class Process;

/// Observer of per-process lifecycle transitions (start, step completion,
/// crash, stall). The System registers itself here so it can maintain its
/// runnable index and finished/crashed counters incrementally instead of
/// rescanning every process per executed step.
class ProcessStateListener {
   public:
    virtual void on_process_state_changed(const Process& p) = 0;

   protected:
    ~ProcessStateListener() = default;
};

class Process {
   public:
    Process(ProcId id, Role role, std::uint32_t role_index)
        : id_(id), role_(role), role_index_(role_index) {}

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    [[nodiscard]] ProcId id() const { return id_; }
    [[nodiscard]] Role role() const { return role_; }
    /// Index among processes of the same role (reader 0..n-1 / writer 0..m-1).
    [[nodiscard]] std::uint32_t role_index() const { return role_index_; }
    [[nodiscard]] bool is_reader() const { return role_ == Role::Reader; }

    // ---- Scheduler-facing API -------------------------------------------

    void set_task(SimTask<void> task) { task_ = std::move(task); }

    /// Registers the (single) lifecycle listener; the System installs
    /// itself in add_process(). Null is allowed (standalone Process tests).
    void set_state_listener(ProcessStateListener* listener) {
        listener_ = listener;
    }

    /// Resume until the first pending op (or completion). Idempotent.
    void start() {
        if (started_ || !task_.valid()) {
            return;
        }
        started_ = true;
        resume_point_ = task_.handle();
        resume();
        notify();
    }

    [[nodiscard]] bool started() const { return started_; }
    [[nodiscard]] bool finished() const { return started_ && task_.done(); }
    [[nodiscard]] bool failed() const { return task_.valid() && task_.failed(); }
    void rethrow_if_failed() const { task_.rethrow_if_failed(); }

    // ---- Fault injection (sim/fault.hpp) --------------------------------
    // A crashed process takes no further steps, ever: its pending op stays
    // registered but is never executed (the crash-stop model of the RME
    // literature, minus recovery). A stalled process is paused until the
    // injector resumes it. A crash-*restarted* process loses its private
    // state (the coroutine frames) but not the Process identity: a fresh
    // task built by the restart factory resumes it in Section::Recover.

    void crash() {
        crashed_ = true;
        notify();
    }
    [[nodiscard]] bool crashed() const { return crashed_; }

    /// Builds the replacement task a process runs after a crash-restart
    /// (the passage driver re-entered in Section::Recover, installed by
    /// sim::install for recoverable targets; sim/passage.hpp). Installing a
    /// factory is what makes a process restartable; without one a
    /// CrashRestart fault is an error.
    using RestartFactory = std::function<SimTask<void>(Process&)>;
    void set_restart_factory(RestartFactory factory) {
        restart_factory_ = std::move(factory);
    }
    [[nodiscard]] bool restartable() const {
        return static_cast<bool>(restart_factory_);
    }

    /// Crash-restart this process at the end of the step currently being
    /// executed. Must be called from a StepObserver during one of this
    /// process's own steps (the injector's contract): the step's shared-
    /// memory effect persists, but the coroutine stack -- the process's
    /// entire private state -- is destroyed *without being resumed*, so the
    /// process never observes the step's response. complete_step() then
    /// installs a fresh task from the restart factory and starts it in
    /// Section::Recover.
    void crash_restart() {
        if (!restart_factory_) {
            throw std::logic_error(
                "Process::crash_restart: no restart factory installed");
        }
        assert(pending_.has_value() && "crash_restart outside own step");
        restart_pending_ = true;
    }

    /// Number of crash-restarts this process has survived.
    [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
    /// Section the process was in when it last crash-restarted (meaningful
    /// only when restarts() > 0); what the RME checkers key CS Reentry on.
    [[nodiscard]] Section crashed_in() const { return crashed_in_; }
    void set_stalled(bool stalled) {
        stalled_ = stalled;
        notify();
    }
    [[nodiscard]] bool stalled() const { return stalled_; }

    [[nodiscard]] bool runnable() const {
        return started_ && !finished() && !crashed_ && !stalled_ &&
               pending_.has_value();
    }
    [[nodiscard]] const Op& pending() const {
        assert(pending_.has_value());
        return *pending_;
    }
    [[nodiscard]] bool has_pending() const { return pending_.has_value(); }

    /// Called by System: consume the pending op (System executes it against
    /// the memory), deliver the result, and resume to the next suspension.
    /// If a crash-restart was requested during this step (by an observer),
    /// the old coroutine is destroyed *instead of resumed* -- the step's
    /// memory effect is durable, the private continuation is not -- and the
    /// restart factory's replacement task starts in Section::Recover.
    void complete_step(const OpResult& result) {
        assert(pending_.has_value());
        pending_.reset();
        op_result_ = result;
        stats_.record(section_, result.rmr);
        if (restart_pending_) {
            restart_pending_ = false;
            crashed_in_ = section_;
            ++restarts_;
            section_ = Section::Recover;
            // Assignment destroys the suspended coroutine stack (nested
            // frames included) before the new task exists: the wipe.
            task_ = restart_factory_(*this);
            started_ = false;
            resume_point_ = {};
            notify();  // Momentarily not runnable (no pending op).
            start();   // Surfaces the recovery task's first pending op.
            return;
        }
        resume();
        notify();
    }

    // ---- Section / passage bookkeeping ----------------------------------

    [[nodiscard]] Section section() const { return section_; }
    void set_section(Section s) { section_ = s; }
    [[nodiscard]] bool in_cs() const { return section_ == Section::Critical; }

    [[nodiscard]] std::uint64_t completed_passages() const {
        return completed_passages_;
    }
    void note_passage_complete() { ++completed_passages_; }

    [[nodiscard]] const SectionStats& stats() const { return stats_; }

    // ---- Awaitables used from algorithm coroutines ----------------------

    struct OpAwaiter {
        Process& p;
        Op op;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
            p.pending_ = op;
            p.resume_point_ = h;
        }
        Word await_resume() const noexcept { return p.op_result_.value; }
    };

    [[nodiscard]] OpAwaiter read(VarId v) { return {*this, Op::read(v)}; }
    [[nodiscard]] OpAwaiter write(VarId v, Word value) {
        return {*this, Op::write(v, value)};
    }
    /// Returns the value of the variable *before* the CAS (paper semantics:
    /// "it returns the value of v prior to its application").
    [[nodiscard]] OpAwaiter cas(VarId v, Word expected, Word desired) {
        return {*this, Op::cas(v, expected, desired)};
    }
    [[nodiscard]] OpAwaiter fetch_add(VarId v, Word delta) {
        return {*this, Op::fetch_add(v, delta)};
    }
    /// A step that touches no shared memory; a pure scheduling point
    /// (models local computation, e.g. time spent inside the CS).
    [[nodiscard]] OpAwaiter local_step() { return {*this, Op::local()}; }

   private:
    void notify() {
        if (listener_ != nullptr) {
            listener_->on_process_state_changed(*this);
        }
    }

    void resume() {
        assert(resume_point_);
        auto h = resume_point_;
        resume_point_ = nullptr;
        h.resume();
        // After resume() the coroutine stack has either registered a new
        // pending op (setting resume_point_ again), finished, or failed.
        if (task_.failed()) {
            pending_.reset();
        }
    }

    ProcId id_;
    Role role_;
    std::uint32_t role_index_;
    ProcessStateListener* listener_ = nullptr;

    SimTask<void> task_;
    bool started_ = false;
    bool crashed_ = false;
    bool stalled_ = false;
    std::coroutine_handle<> resume_point_;
    std::optional<Op> pending_;
    OpResult op_result_;

    RestartFactory restart_factory_;
    bool restart_pending_ = false;
    std::uint64_t restarts_ = 0;
    Section crashed_in_ = Section::Remainder;

    Section section_ = Section::Remainder;
    std::uint64_t completed_passages_ = 0;
    SectionStats stats_;
};

}  // namespace rwr::sim
