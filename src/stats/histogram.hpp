// Quantile estimation over bounded-ish samples: exact storage up to a cap,
// then reservoir sampling. Used for latency percentiles (the paper reports
// means; tails are where contention shows first). Plus Histogram, the
// fixed-layout log-bucketed counterpart the obs metrics layer aggregates
// (DESIGN.md §10): exact counts, exact merge, no sampling.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace manet::stats {

/// Fixed-layout histogram over non-negative samples with power-of-two bucket
/// edges: bucket 0 holds values < 1, bucket i (i >= 1) holds [2^(i-1), 2^i).
/// Everything is integer bucket arithmetic plus an ordered running sum, so
/// two histograms merged in a fixed order are byte-identical to one histogram
/// fed the concatenated samples in that order — the property the parallel
/// cell runner relies on for thread-count-invariant metrics (DESIGN.md §10).
/// Header-only: the obs layer sits below stats in the link order and only
/// needs the type, not a library dependency.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Bucket index for a sample (negatives clamp to bucket 0).
  static std::size_t bucketOf(double sample) {
    if (!(sample >= 1.0)) return 0;  // also catches NaN
    const auto truncated = static_cast<std::uint64_t>(
        std::min(sample, 9.0e18));  // clamp below 2^63 before the cast
    return std::min<std::size_t>(kBuckets - 1, std::bit_width(truncated));
  }

  /// Exclusive upper edge of a bucket (the report's bucket key).
  static double bucketUpper(std::size_t bucket) {
    if (bucket == 0) return 1.0;
    return static_cast<double>(std::uint64_t{1} << bucket);
  }

  void observe(double sample) {
    ++count_;
    sum_ += sample;
    min_ = count_ == 1 ? sample : std::min(min_, sample);
    max_ = count_ == 1 ? sample : std::max(max_, sample);
    ++buckets_[bucketOf(sample)];
  }

  /// Adds `other`'s contents. Merge order must be deterministic for the
  /// floating-point sum to be reproducible (callers merge in repetition
  /// order).
  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  std::uint64_t bucketCount(std::size_t bucket) const {
    return buckets_[bucket];
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

class QuantileEstimator {
 public:
  /// Stores up to `capacity` samples exactly; beyond that, keeps a uniform
  /// reservoir of that size (deterministic given `seed`).
  explicit QuantileEstimator(std::size_t capacity = 65536,
                             std::uint64_t seed = 1);

  void add(double sample);

  std::uint64_t count() const { return count_; }

  /// Quantile in [0, 1]; linear interpolation between order statistics.
  /// Returns 0 when empty.
  double quantile(double q) const;

  double median() const { return quantile(0.5); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

 private:
  std::size_t capacity_;
  sim::Rng rng_;
  std::uint64_t count_ = 0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace manet::stats
