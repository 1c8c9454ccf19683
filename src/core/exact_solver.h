// Exact OBM solver by depth-first branch-and-bound.
//
// OBM is NP-complete (paper Section III.C), so exact solutions are only
// tractable for small chips — but they are invaluable for measuring the
// optimality gap of the heuristics (SSS typically lands within a couple of
// percent on the instances this can solve). The search assigns threads to
// tiles in descending-rate order, pruning a partial assignment when an
// optimistic completion (every unassigned thread takes its cheapest free
// tile, ignoring the one-thread-per-tile constraint among the remainder)
// cannot beat the incumbent, which is seeded with the SSS solution.
#pragma once

#include <cstdint>

#include "core/problem.h"

namespace nocmap {

struct ExactResult {
  Mapping mapping;
  /// Optimal objective value: max-APL, or max_i w_i·APL_i when the problem
  /// carries QoS weights.
  double max_apl = 0.0;
  std::uint64_t nodes_explored = 0;
  /// False when the node budget was exhausted first; the mapping is then
  /// the best incumbent, not necessarily optimal.
  bool proven_optimal = false;
};

struct ExactSolverOptions {
  /// Hard cap on explored search nodes.
  std::uint64_t max_nodes = 50'000'000;
};

/// Solves OBM exactly (within the node budget). Throws if the problem has
/// more than 20 threads, a practical size guard against absurd inputs.
ExactResult solve_obm_exact(const ObmProblem& problem,
                            const ExactSolverOptions& options = {});

}  // namespace nocmap
