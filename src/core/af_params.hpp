// Parameterization of the A_f family: the choice of f(n), the writer's RMR
// budget. The paper's tradeoff (Theorems 5 & 18): writers pay Θ(f(n)),
// readers pay Θ(log(n / f(n))); any 1 <= f(n) <= n is a valid (and optimal)
// tradeoff point.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rwr::core {

struct AfParams {
    std::uint32_t n = 1;  ///< Number of reader processes.
    std::uint32_t m = 1;  ///< Number of writer processes.
    std::uint32_t f = 1;  ///< Writer RMR budget: number of reader groups.

    /// DSM variant (off by default; CC numbers are bit-identical either
    /// way, since owners are ignored outside Protocol::Dsm). When set:
    /// WSEQ/WSIG/RSIG are homed at writer 0 (pid n under the harness
    /// convention "readers first, then writers"), the readers' RSIG spin
    /// (paper line 36) is replaced by a per-reader grant gate homed at
    /// that reader, and WL is the DSM-homed Yang-Anderson tournament.
    /// Reader passages then stay Theta(log K) RMRs under Dsm; the writer
    /// exit pays Theta(n) gate writes -- the unavoidable writer-side price
    /// of DSM-local reader spins (Danek & Hadzilacos's Omega(n) DSM
    /// lower bound; see EXPERIMENTS.md E11/E15). With m > 1 the WSIG spin
    /// is local only for writer 0; the E15 grid runs m = 1, where the
    /// homing is exact.
    bool dsm_local_spin = false;

    /// K = ceil(n / f): readers per group (paper line 1). Rounded up
    /// without forming n + f - 1, which wraps near 2^32.
    [[nodiscard]] std::uint32_t group_size() const {
        return n / f + (n % f != 0);
    }
    /// Actual number of groups needed to cover n readers with groups of K.
    /// (Equals f except when rounding makes trailing groups empty.)
    [[nodiscard]] std::uint32_t num_groups() const {
        const std::uint32_t k = group_size();
        return n / k + (n % k != 0);
    }

    /// Returns *this; throws std::invalid_argument unless n, m >= 1 and
    /// 1 <= f <= n.
    [[nodiscard]] const AfParams& validated() const {
        if (n == 0 || m == 0) {
            throw std::invalid_argument("AfParams: need n >= 1 and m >= 1");
        }
        if (f == 0 || f > n) {
            throw std::invalid_argument("AfParams: need 1 <= f <= n");
        }
        return *this;
    }
};

/// Named choices of f(n) used throughout the benches.
enum class FChoice {
    One,     ///< f = 1: cheapest writers, Θ(log n) readers.
    Log,     ///< f = ceil(log2 n) + 1.
    Sqrt,    ///< f = ceil(sqrt n): balanced.
    Linear,  ///< f = n: Θ(n) writers, O(1)-group readers.
};

[[nodiscard]] inline std::uint32_t f_of(FChoice c, std::uint32_t n) {
    switch (c) {
        case FChoice::One:
            return 1;
        case FChoice::Log: {
            const auto lg =
                static_cast<std::uint32_t>(std::bit_width(n) - 1);
            return std::min(n, lg + 1);
        }
        case FChoice::Sqrt:
            return std::min(
                n, static_cast<std::uint32_t>(
                       std::ceil(std::sqrt(static_cast<double>(n)))));
        case FChoice::Linear:
            return n;
    }
    return 1;
}

[[nodiscard]] inline std::string to_string(FChoice c) {
    switch (c) {
        case FChoice::One: return "f=1";
        case FChoice::Log: return "f=log n";
        case FChoice::Sqrt: return "f=sqrt n";
        case FChoice::Linear: return "f=n";
    }
    return "?";
}

}  // namespace rwr::core
