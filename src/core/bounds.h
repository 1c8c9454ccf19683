// Lower bounds on the OBM objective (max-APL).
//
// Used to (a) prune the exact branch-and-bound solver and (b) report the
// optimality gap of heuristics. Two bounds compose:
//
//  * Volume bound: max-APL >= g-APL_min, the optimal global APL from one
//    assignment solve — the max of per-application averages cannot be below
//    the best achievable volume-weighted overall average.
//  * Per-application bound: for each application i, APL_i is minimized when
//    the application can pick its |a_i| favourite tiles from the whole chip
//    without competition; max-APL >= max_i of those relaxed minima. The
//    relaxed minimum is a rectangular |a_i|×N assignment, solved directly
//    (no dummy-row padding) by the workspace kernel.
//
// Each bound has a convenience overload that builds its own eq.-13 cache,
// and a hot-path overload taking a shared ThreadCostCache plus an
// AssignmentWorkspace. The composite bound reuses one workspace across all
// of its solves so the scratch arrays are allocated once; the rectangular
// per-application relaxations themselves always run cold (carried column
// potentials are unsound when columns may stay unmatched — see
// assign/hungarian.h).
#pragma once

#include "core/cost_cache.h"
#include "core/problem.h"

namespace nocmap {

/// Optimal (unconstrained-by-balance) g-APL: the Global baseline's value.
double optimal_gapl(const ObmProblem& problem, const ThreadCostCache& cache,
                    AssignmentWorkspace& ws);

/// Relaxed minimum APL of application `app` if it alone chose its tiles.
double relaxed_min_apl(const ObmProblem& problem, std::size_t app);
double relaxed_min_apl(const ObmProblem& problem, std::size_t app,
                       const ThreadCostCache& cache, AssignmentWorkspace& ws);

/// Combined lower bound on the optimal objective (max-APL, or the weighted
/// variant when the problem carries QoS weights).
double max_apl_lower_bound(const ObmProblem& problem);
double max_apl_lower_bound(const ObmProblem& problem,
                           const ThreadCostCache& cache,
                           AssignmentWorkspace& ws);

}  // namespace nocmap
