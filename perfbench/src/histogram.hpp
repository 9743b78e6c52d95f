// Log-linear latency histogram: values below 16 get exact buckets, every
// octave above is split into 16 equal sub-buckets, so a reported quantile
// is within one sub-bucket (at most 1/16 = 6.25% of the value) of the
// exact order statistic. The library's own histograms (LockTelemetry,
// dist::SessionStats) keep one bucket per octave, which pins p50/p99 to
// powers of two; every *_p50_ns / *_p99_ns the benchmark prints comes from
// this one instead.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace perfbench {

class Histogram {
   public:
    static constexpr std::uint32_t kSubBits = 4;
    static constexpr std::uint32_t kSub = 1u << kSubBits;  // Per octave.
    static constexpr std::uint32_t kBuckets = kSub + (64 - kSubBits) * kSub;

    static std::uint32_t index_of(std::uint64_t v) {
        if (v < kSub) {
            return static_cast<std::uint32_t>(v);
        }
        const auto e = static_cast<std::uint32_t>(std::bit_width(v) - 1);
        const auto sub =
            static_cast<std::uint32_t>((v >> (e - kSubBits)) & (kSub - 1));
        return kSub + (e - kSubBits) * kSub + sub;
    }
    static std::uint64_t lower_of(std::uint32_t i) {
        if (i < kSub) {
            return i;
        }
        const std::uint32_t e = (i - kSub) / kSub + kSubBits;
        const std::uint64_t sub = (i - kSub) % kSub;
        return (kSub + sub) << (e - kSubBits);
    }
    static std::uint64_t width_of(std::uint32_t i) {
        return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
    }

    void record(std::uint64_t v) {
        ++buckets_[index_of(v)];
        ++count_;
    }
    void merge(const Histogram& o) {
        for (std::uint32_t i = 0; i < kBuckets; ++i) {
            buckets_[i] += o.buckets_[i];
        }
        count_ += o.count_;
    }

    [[nodiscard]] std::uint64_t count() const { return count_; }

    /// The q-quantile (q in [0,1]): the ceil(q * count)-th smallest
    /// sample, placed inside its bucket by linear interpolation over the
    /// bucket's samples; 0 when empty.
    [[nodiscard]] double quantile(double q) const {
        if (count_ == 0) {
            return 0.0;
        }
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count_)));
        rank = std::clamp<std::uint64_t>(rank, 1, count_);
        std::uint64_t seen = 0;
        for (std::uint32_t i = 0; i < kBuckets; ++i) {
            if (seen + buckets_[i] >= rank) {
                const double within =
                    (static_cast<double>(rank - seen) - 0.5) /
                    static_cast<double>(buckets_[i]);
                return static_cast<double>(lower_of(i)) +
                       within * static_cast<double>(width_of(i));
            }
            seen += buckets_[i];
        }
        return 0.0;
    }

    /// Samples strictly above the bucket that holds the q-quantile: the
    /// "how many samples back this percentile" figure printed beside it.
    [[nodiscard]] std::uint64_t count_above(double q) const {
        if (count_ == 0) {
            return 0;
        }
        const auto idx = index_of(static_cast<std::uint64_t>(quantile(q)));
        std::uint64_t above = 0;
        for (std::uint32_t i = idx + 1; i < kBuckets; ++i) {
            above += buckets_[i];
        }
        return above;
    }

   private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

}  // namespace perfbench
