// Latency metrics of the paper's evaluation (Sections II.D and III.A).
//
//   APL_i   — average packet latency of application i (eq. 5): the rate-
//             weighted mean of per-thread latencies under a mapping.
//   max-APL — the OBM objective (eq. 6/7): max over applications.
//   dev-APL — population standard deviation of the applications' APLs;
//             rejected as an objective (Fig. 5 pathology) but reported as a
//             balance indicator (Table 4).
//   g-APL   — global APL over all packets: total weighted latency divided by
//             total communication volume (Section II.D); the objective of
//             the Global baseline.
//
// Applications with zero total rate (e.g. pad threads) contribute APL 0 and
// are excluded from max/dev/g aggregation, mirroring that they inject no
// packets.
#pragma once

#include <vector>

#include "core/problem.h"

namespace nocmap {

/// Full metric bundle for one (problem, mapping) pair.
struct LatencyReport {
  std::vector<double> apl;  ///< per-application APL, paper eq. 5
  double max_apl = 0.0;     ///< eq. 6
  double dev_apl = 0.0;     ///< population stddev of APLs
  double g_apl = 0.0;       ///< global APL
  double min_to_max = 1.0;  ///< min/max APL ratio (Section III.A metric)
  /// The optimization objective: max_i w_i·APL_i. Equals max_apl for the
  /// unweighted (paper) problem; differs only under QoS weights.
  double objective = 0.0;
};

/// Evaluates every metric for the mapping. Requires a valid permutation.
LatencyReport evaluate(const ObmProblem& problem, const Mapping& mapping);

}  // namespace nocmap
