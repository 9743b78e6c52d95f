// Span recorder for the traced run. Spans are recorded by the benchmark
// around its calls into each layer (nothing inside the library is
// instrumented), kept in memory, and written once at the end as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open offline.
//
// A span carries its name, start, end, the id of the span that caused it
// (0 = root) and a shared id grouping the spans of one request (a runner
// call, one explored scenario, one sampled lock passage).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";  ///< Static string.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
};

class Tracer {
   public:
    /// Spans beyond `cap` are counted, not kept, so a long traced run has
    /// bounded memory.
    explicit Tracer(std::size_t cap = 200'000) : cap_(cap) {
        spans_.reserve(cap < 4096 ? cap : 4096);
    }

    [[nodiscard]] std::uint64_t next_id() { return ++ids_; }

    void record(const Span& s) {
        std::lock_guard<std::mutex> g(mu_);
        if (spans_.size() < cap_) {
            spans_.push_back(s);
        } else {
            ++dropped_;
        }
    }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard<std::mutex> g(mu_);
        return spans_.size();
    }
    [[nodiscard]] std::uint64_t dropped() const {
        std::lock_guard<std::mutex> g(mu_);
        return dropped_;
    }
    [[nodiscard]] std::vector<Span> spans() const {
        std::lock_guard<std::mutex> g(mu_);
        return spans_;
    }

    /// Writes {"traceEvents": [...]} with one complete ("X") event per
    /// span; timestamps are microseconds from the first span. Returns false
    /// when the file cannot be written.
    bool write_chrome_json(const std::string& path) const;

   private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::size_t cap_;
    std::uint64_t dropped_ = 0;
    std::atomic<std::uint64_t> ids_{0};
};

}  // namespace perfbench
