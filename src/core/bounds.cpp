#include "core/bounds.h"

#include <algorithm>
#include <limits>

#include "assign/hungarian.h"

namespace nocmap {

double optimal_gapl(const ObmProblem& problem, const ThreadCostCache& cache,
                    AssignmentWorkspace& ws) {
  const std::size_t n = problem.num_threads();
  const double volume = cache.rate_sum(0, n);
  if (volume <= 0.0) return 0.0;
  // All threads against tiles 0..n-1 — a dense prefix of the cache rows.
  const CostView view(cache.row(0), n, n, cache.row_stride());
  return ws.solve(view).total_cost / volume;
}

double relaxed_min_apl(const ObmProblem& problem, std::size_t app,
                       const ThreadCostCache& cache, AssignmentWorkspace& ws) {
  const Workload& wl = problem.workload();
  const std::size_t lo = wl.first_thread(app);
  const std::size_t dn = wl.last_thread(app) - lo;

  const double volume = cache.rate_sum(lo, dn);
  if (volume <= 0.0) return 0.0;
  // Rectangular dn×N relaxation: the application's threads pick freely from
  // the whole chip; unpicked tiles simply stay unmatched (equivalent to the
  // classic zero-cost dummy-row padding, at a fraction of the work).
  const CostView view(cache.row(lo), dn, problem.num_tiles(),
                      cache.row_stride());
  return ws.solve(view).total_cost / volume;
}

double relaxed_min_apl(const ObmProblem& problem, std::size_t app) {
  const ThreadCostCache cache(problem.workload(), problem.model());
  AssignmentWorkspace ws;
  return relaxed_min_apl(problem, app, cache, ws);
}

double max_apl_lower_bound(const ObmProblem& problem,
                           const ThreadCostCache& cache,
                           AssignmentWorkspace& ws) {
  // Volume bound: max_i w_i·APL_i >= w_min · max_i APL_i >= w_min · g-APL,
  // and the minimal achievable g-APL is one assignment solve away.
  double min_weight = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < problem.num_applications(); ++a) {
    min_weight = std::min(min_weight, problem.app_weight(a));
  }
  double bound = min_weight * optimal_gapl(problem, cache, ws);
  // Per-application bound: application i can never beat its uncontested
  // relaxed minimum, scaled by its own weight.
  for (std::size_t a = 0; a < problem.num_applications(); ++a) {
    bound = std::max(bound, problem.app_weight(a) *
                                relaxed_min_apl(problem, a, cache, ws));
  }
  return bound;
}

double max_apl_lower_bound(const ObmProblem& problem) {
  const ThreadCostCache cache(problem.workload(), problem.model());
  AssignmentWorkspace ws;
  return max_apl_lower_bound(problem, cache, ws);
}

}  // namespace nocmap
