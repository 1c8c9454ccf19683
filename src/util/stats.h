// Descriptive statistics used throughout nocmap.
//
// The paper's evaluation reports means, population standard deviations
// (dev-APL), minima/maxima and ratios; this header centralizes those so every
// module computes them identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nocmap {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Population standard deviation (divide by N). The paper's dev-APL is a
/// population statistic over the A applications.
double stddev_population(std::span<const double> xs);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// min/max ratio in [0,1]; the "min-to-max" fairness metric discussed (and
/// rejected as an objective) in the paper's Section III.A. Returns 1 for an
/// empty span, 0 when max == 0.
double min_to_max_ratio(std::span<const double> xs);

/// Streaming count and mean (Welford's running-mean update). Used for
/// per-packet latency means in the network simulator where storing every
/// sample would be wasteful.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9). Used for deterministic quantile sampling in
/// workload synthesis. Requires p in (0, 1).
double inverse_normal_cdf(double p);

/// Histogram of non-negative integer samples (cycles, nanoseconds) with no
/// configured range. Buckets are unit-width below 128; above that each power
/// of two is split into 64 equal buckets, so no bucket is wider than 1/64 of
/// its low edge. Storage grows to the largest sample seen and nothing is
/// ever clamped. Used for packet-latency and service decision-time tails.
class Histogram {
 public:
  void add(std::uint64_t x);

  std::size_t total() const { return total_; }
  /// Per-bucket counts, index-aligned with bucket_of(); ends at the bucket
  /// of the largest sample.
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Bucket holding sample `x`, and that bucket's [lo, hi) edges.
  static std::size_t bucket_of(std::uint64_t x);
  static double bucket_lo(std::size_t bucket);
  static double bucket_hi(std::size_t bucket) { return bucket_lo(bucket + 1); }

  /// Value below which the given fraction (0..1) of samples fall, linearly
  /// interpolated within the containing bucket; 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace nocmap
