#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.h"

namespace nocmap {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

namespace {

double sum_sq_dev(std::span<const double> xs, double m) {
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s;
}

}  // namespace

double stddev_population(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::sqrt(sum_sq_dev(xs, mean(xs)) / static_cast<double>(xs.size()));
}

double min_value(std::span<const double> xs) {
  NOCMAP_REQUIRE(!xs.empty(), "min_value of empty span");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  NOCMAP_REQUIRE(!xs.empty(), "max_value of empty span");
  return *std::max_element(xs.begin(), xs.end());
}

double min_to_max_ratio(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  const double mx = max_value(xs);
  if (mx == 0.0) return 0.0;
  return min_value(xs) / mx;
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double inverse_normal_cdf(double p) {
  NOCMAP_REQUIRE(p > 0.0 && p < 1.0, "inverse_normal_cdf needs p in (0,1)");
  // Acklam's rational approximation with central / tail regions.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > p_high) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

namespace {

// Unit-width buckets cover [0, kLinear); above, each octave [2^e, 2^(e+1))
// holds kPerOctave buckets of width 2^(e - kSubBits).
constexpr unsigned kLinearBits = 7;
constexpr unsigned kSubBits = 6;
constexpr std::uint64_t kLinear = std::uint64_t{1} << kLinearBits;
constexpr std::uint64_t kPerOctave = std::uint64_t{1} << kSubBits;

}  // namespace

std::size_t Histogram::bucket_of(std::uint64_t x) {
  if (x < kLinear) return static_cast<std::size_t>(x);
  const auto octave = static_cast<unsigned>(std::bit_width(x)) - 1;
  const std::uint64_t sub = (x >> (octave - kSubBits)) - kPerOctave;
  return static_cast<std::size_t>(kLinear +
                                  (octave - kLinearBits) * kPerOctave + sub);
}

double Histogram::bucket_lo(std::size_t bucket) {
  if (bucket < kLinear) return static_cast<double>(bucket);
  const std::size_t above = bucket - kLinear;
  const auto octave = static_cast<int>(above / kPerOctave + kLinearBits);
  return std::ldexp(static_cast<double>(kPerOctave + above % kPerOctave),
                    octave - static_cast<int>(kSubBits));
}

void Histogram::add(std::uint64_t x) {
  const std::size_t bucket = bucket_of(x);
  if (bucket >= counts_.size()) counts_.resize(bucket + 1, 0);
  ++counts_[bucket];
  ++total_;
}

double Histogram::percentile(double p) const {
  NOCMAP_REQUIRE(p >= 0.0 && p <= 1.0, "percentile must be in [0,1]");
  const double target = p * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (cum + c >= target) {
      const double frac = c > 0.0 ? (target - cum) / c : 0.0;
      return bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
    }
    cum += c;
  }
  return 0.0;  // empty: the last bucket always holds a sample otherwise
}

}  // namespace nocmap
