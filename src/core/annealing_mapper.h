// Simulated-annealing baseline for OBM (paper Section V.A algorithm 3).
//
// State: a thread-to-tile permutation. Move: swap the tiles of two uniformly
// random threads (the paper's definition of a "move"). Objective: max-APL
// (or one of the rejected balance metrics), scored in O(A) per move by
// delta substitution on the chain's own per-application numerators.
// Cooling is geometric from an initial temperature proportional to the
// starting max-APL down to a fixed terminal fraction; the iteration budget
// is a parameter so Figure 12 (solution quality vs. allowed runtime) can
// sweep it.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/mapper.h"
#include "core/parallel.h"

namespace nocmap {

/// Optimization objective for the annealer. kMaxApl is the paper's OBM
/// objective; the other two are the Section-III.A candidate metrics the
/// paper rejects — implemented so the pathology (perfectly "balanced" but
/// uniformly slow solutions) can be demonstrated empirically rather than
/// only on the Figure-5 toy instance.
enum class AnnealObjective {
  kMaxApl,      ///< minimize max_i APL_i (the OBM objective)
  kDevApl,      ///< minimize the stddev of the APLs
  kMinToMax,    ///< maximize min(APL)/max(APL), i.e. minimize its negation
};

const char* anneal_objective_name(AnnealObjective objective);

struct AnnealingParams {
  std::size_t iterations = 200000;
  std::uint64_t seed = 1;
  AnnealObjective objective = AnnealObjective::kMaxApl;
  /// Independent chains; the best final state wins (ties to the lowest
  /// chain index). One restart (the default) is a single chain seeded
  /// with `seed` directly; with R > 1, chain r draws from
  /// the forked stream Rng(seed).fork(r), so the result depends only on
  /// (seed, R) — never on how chains are scheduled onto workers.
  std::size_t restarts = 1;
  /// Workers for the chains (default: one, inline); each chain is
  /// inherently sequential, so parallelism comes from running restarts
  /// concurrently.
  ParallelConfig parallel = {};
};

/// Initial and terminal temperature of a geometric cooling schedule.
struct CoolingSchedule {
  double t0 = 0.0;
  double t_end = 0.0;
};

/// The schedule SA and CSA share: the initial temperature is 0.05 of the
/// starting max-APL (taken as at least 1), the terminal one 1e-4 of that.
inline CoolingSchedule cooling_schedule(double initial_max_apl) {
  constexpr double kInitialTempFraction = 0.05;
  constexpr double kFinalTempFraction = 1e-4;
  const double t0 =
      std::max(kInitialTempFraction * std::max(initial_max_apl, 1.0), 1e-9);
  return {t0, std::max(t0 * kFinalTempFraction, 1e-12)};
}

class AnnealingMapper final : public Mapper {
 public:
  explicit AnnealingMapper(AnnealingParams params = {}) : params_(params) {}

  std::string name() const override;
  Mapping map(const ObmProblem& problem) override;

  const AnnealingParams& params() const { return params_; }

 private:
  AnnealingParams params_;
};

}  // namespace nocmap
