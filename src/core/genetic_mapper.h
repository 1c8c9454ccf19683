// Genetic-search baseline for OBM.
//
// The paper's related work (Section IV, refs [14][17]) cites genetic search
// as a general neighborhood-search approach to NoC mapping that is "too
// time-consuming to reach a satisfying solution"; we implement it so that
// claim can be measured rather than assumed (see ext_heuristic_faceoff).
//
// Standard permutation GA: tournament selection of four, PMX (partially
// mapped crossover, which preserves permutation validity) at rate 0.9, one
// swap mutation per offspring at rate 0.2, and two elites, with max-APL as
// the (minimized) fitness.
#pragma once

#include <cstdint>

#include "core/mapper.h"
#include "core/parallel.h"

namespace nocmap {

struct GeneticParams {
  std::size_t population = 64;  ///< must exceed the two elites
  std::size_t generations = 200;
  std::uint64_t seed = 1;
  /// Fitness-evaluation workers (default: one, inline). Breeding
  /// (selection, PMX, mutation) stays on one RNG stream and is serial; the
  /// per-individual fitness evaluations are pure and fan out, so results
  /// are identical at any thread count.
  ParallelConfig parallel = {};
};

class GeneticMapper final : public Mapper {
 public:
  explicit GeneticMapper(GeneticParams params = {}) : params_(params) {}

  std::string name() const override { return "GA"; }
  Mapping map(const ObmProblem& problem) override;

  const GeneticParams& params() const { return params_; }

 private:
  GeneticParams params_;
};

}  // namespace nocmap
