// What one workload run produces: named metrics with units, the operation
// count, and every failed check. Failures set the exit code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;  ///< E.g. a percentile's sample counts.
};

class Outcome {
   public:
    void e2e(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
        put(&e2e_, {name, value, unit, note});
    }
    void layer(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
        put(&layers_, {name, value, unit, note});
    }
    /// Adds `m` as a layer metric unless one of that name is present.
    void layer_if_absent(const Metric& m) {
        for (const auto& have : layers_) {
            if (have.name == m.name) {
                return;
            }
        }
        layers_.push_back(m);
    }

    void attempt(std::uint64_t n) { attempted_ += n; }
    /// Counts `n` failed operations against the attempted ones and keeps
    /// the reason; a call with n == 0 is a no-op.
    void fail(const std::string& what, std::uint64_t n = 1) {
        if (n == 0) {
            return;
        }
        failed_ += n;
        failures_.push_back(what + " (x" + std::to_string(n) + ")");
    }
    /// fail() unless `ok`.
    void check(bool ok, const std::string& what, std::uint64_t n = 1) {
        if (!ok) {
            fail(what, n);
        }
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<std::string>& failures() const {
        return failures_;
    }
    [[nodiscard]] bool correct() const {
        return failed_ == 0 && attempted_ > 0;
    }
    /// 0 iff every check passed and something was attempted.
    [[nodiscard]] int exit_code() const { return correct() ? 0 : 1; }
    [[nodiscard]] double failed_ratio() const {
        return attempted_ == 0 ? 1.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_);
    }

    [[nodiscard]] const std::vector<Metric>& e2e() const { return e2e_; }
    [[nodiscard]] const std::vector<Metric>& layers() const {
        return layers_;
    }
    [[nodiscard]] const Metric* find_e2e(const std::string& name) const {
        const auto it =
            std::find_if(e2e_.begin(), e2e_.end(),
                         [&](const Metric& m) { return m.name == name; });
        return it == e2e_.end() ? nullptr : &*it;
    }

   private:
    static void put(std::vector<Metric>* v, Metric m) {
        for (auto& have : *v) {
            if (have.name == m.name) {
                have = std::move(m);
                return;
            }
        }
        v->push_back(std::move(m));
    }

    std::vector<Metric> e2e_;
    std::vector<Metric> layers_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/// Median of `v` (by value; 0 when empty).
inline double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// The q-quantile of `v`, q in [0, 1], interpolating between neighbouring
/// ranks (by value; 0 when empty).
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
