// Synthetic PARSEC-like workload generation (substitution for the paper's
// Simics-gathered PARSEC 2.0 traces; see DESIGN.md §5.1).
//
// The mapping algorithms consume only the per-thread rate vectors (c_j, m_j).
// The paper publishes (Table 3) the mean and standard deviation of the cache
// and memory request rates for each of its eight configurations C1–C8, and
// notes the cache rate averages 6.78× the memory rate. We regenerate rate
// vectors as follows:
//
//  * Means are matched exactly. The published std-devs cannot be matched
//    over threads: several exceed mean·sqrt(N−1), the mathematical maximum
//    for any N non-negative numbers with that mean, so they are necessarily
//    temporal (per-sample) variability, not per-thread spread. Critically,
//    an extreme per-thread tail would also *erase* the paper's own
//    Section-II.D phenomenon: APLs are rate-weighted, so if one mega-hot
//    thread dominated each application, Global would balance APLs almost
//    for free. The paper's Figures 4/8 (whole applications pinned to the
//    corner region) require moderate within-application heterogeneity and
//    strong across-application load differences.
//  * Per-thread cache rates inside each application are deterministic
//    lognormal quantiles with a moderate coefficient of variation: 0.03 of
//    the configuration's Table-3 cv, clamped to [0.2, 0.7], so the
//    configurations' variance *ordering* is preserved.
//  * Per-application load multipliers make the applications' total rates
//    distinct ("Application 1 … lightest traffic"), then a global rescale
//    pins the exact Table-3 mean.
//  * Memory rates follow m_j = c_j / ratio_j with per-thread ratios
//    jittered lognormally (sigma 0.35), rescaled so the configuration's
//    memory-rate mean is exact.
//
// Everything is deterministic given (spec, seed).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "workload/workload.h"

namespace nocmap {

/// First two moments of a rate distribution.
struct RateMoments {
  double mean = 0.0;
  double stddev = 0.0;
};

/// One paper configuration: target moments for cache and memory rates.
struct ConfigSpec {
  std::string name;
  RateMoments cache;
  RateMoments memory;
};

/// The eight configurations of paper Table 3 (C1..C8).
std::array<ConfigSpec, 8> parsec_table3_configs();

/// Looks up a Table-3 configuration by name ("C1".."C8"). Throws on unknown.
ConfigSpec parsec_config(const std::string& name);

/// Knobs for synthesize_workload.
struct SynthesisOptions {
  std::size_t num_applications = 4;
  std::size_t threads_per_app = 16;
  /// Relative total-load multipliers per application (cycled if fewer than
  /// num_applications entries). Distinct values reproduce the paper's
  /// light-vs-heavy application mix; the defaults were calibrated so the
  /// Table-1 shape matches (Global ≈ +7..10% max-APL and ~3.5-4x dev-APL
  /// over the random average).
  std::vector<double> app_load_multipliers = {0.25, 0.7, 1.3, 1.75};
};

/// Generates a Workload matching `spec` as described above. The result has
/// exactly spec.cache.mean / spec.memory.mean as its realized mean rates.
Workload synthesize_workload(const ConfigSpec& spec, std::uint64_t seed,
                             const SynthesisOptions& options = {});

/// Realized moments of a workload (for the Table-3 reproduction bench).
struct WorkloadMoments {
  RateMoments cache;
  RateMoments memory;
};
WorkloadMoments measure_moments(const Workload& workload);

}  // namespace nocmap
