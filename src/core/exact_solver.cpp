#include "core/exact_solver.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/batch_eval.h"
#include "core/bounds.h"
#include "core/cost_cache.h"
#include "core/metrics.h"
#include "core/sss_mapper.h"

namespace nocmap {

namespace {

/// Largest instance the solver accepts (see solve_obm_exact).
constexpr std::size_t kMaxThreads = 20;

struct SearchState {
  const BatchEvaluator* table;  // objective fold; numerators are per slot
  const ThreadCostCache* cache;
  ExactSolverOptions options;

  std::vector<std::size_t> thread_order;  // descending total rate

  // Per thread: the tiles 0..n-1 sorted by that thread's cost, ascending.
  // Costs never change during the search, so the per-node sort the solver
  // used to do is hoisted here — one O(n² log n) pass instead of an
  // allocation and an O(n log n) sort at every node.
  std::vector<std::vector<TileId>> tile_order;

  // Per (depth, slot): minimal possible remaining numerator if every not-
  // yet-assigned thread of the app took its global cheapest tile.
  std::vector<std::vector<double>> optimistic_tail;

  // Problem-wide lower bound (volume + per-app assignment relaxations, each
  // a cold solve): once the incumbent reaches it, every subtree prunes
  // at its first node and the search ends immediately.
  double global_lb = 0.0;

  std::vector<double> app_numerator;    // spare slot included
  std::vector<double> bound_numerator;  // lower_bound scratch
  std::vector<TileId> assigned_tile;    // by order position
  std::vector<char> tile_used;

  double best_obj = std::numeric_limits<double>::infinity();
  std::vector<TileId> best_assignment;  // by order position
  std::uint64_t nodes = 0;
  bool budget_hit = false;

  double cost(std::size_t thread, TileId tile) const {
    return cache->cost(thread, tile);
  }

  /// Optimistic lower bound for the subtree at `depth` (threads
  /// thread_order[depth..] unassigned): the objective of the optimistic
  /// completion, or the problem-wide bound if that is higher.
  double lower_bound(std::size_t depth) {
    for (std::size_t s = 0; s < bound_numerator.size(); ++s) {
      bound_numerator[s] = app_numerator[s] + optimistic_tail[depth][s];
    }
    return std::max(global_lb, table->objective(bound_numerator));
  }

  void dfs(std::size_t depth) {
    if (budget_hit) return;
    if (++nodes > options.max_nodes) {
      budget_hit = true;
      return;
    }
    if (depth == thread_order.size()) {
      const double obj = table->objective(app_numerator);
      if (obj < best_obj) {
        best_obj = obj;
        best_assignment = assigned_tile;
      }
      return;
    }
    if (lower_bound(depth) >= best_obj) return;  // prune

    const std::size_t j = thread_order[depth];
    const std::size_t slot = table->slots()[j];

    // Cheapest-first for this thread so good incumbents come early.
    for (TileId tile : tile_order[j]) {
      if (tile_used[tile]) continue;
      tile_used[tile] = 1;
      assigned_tile[depth] = tile;
      app_numerator[slot] += cost(j, tile);
      dfs(depth + 1);
      app_numerator[slot] -= cost(j, tile);
      tile_used[tile] = 0;
      if (budget_hit) return;
    }
  }
};

}  // namespace

ExactResult solve_obm_exact(const ObmProblem& problem,
                            const ExactSolverOptions& options) {
  const std::size_t n = problem.num_threads();
  NOCMAP_REQUIRE(n <= kMaxThreads, "instance too large for the exact solver");

  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator table(problem, cache);
  const std::size_t num_slots = table.apps().size() + 1;  // + spare slot

  SearchState st;
  st.table = &table;
  st.cache = &cache;
  st.options = options;

  // Branch on hot threads first: their placement moves the bound most.
  st.thread_order.resize(n);
  std::iota(st.thread_order.begin(), st.thread_order.end(), std::size_t{0});
  std::sort(st.thread_order.begin(), st.thread_order.end(),
            [&](std::size_t x, std::size_t y) {
              return cache.rate(x) > cache.rate(y);
            });

  // Per-thread cheapest-first tile orders, computed once.
  st.tile_order.assign(n, std::vector<TileId>(n));
  for (std::size_t j = 0; j < n; ++j) {
    std::iota(st.tile_order[j].begin(), st.tile_order[j].end(), TileId{0});
    const double* row = cache.row(j);
    std::sort(st.tile_order[j].begin(), st.tile_order[j].end(),
              [row](TileId x, TileId y) { return row[x] < row[y]; });
  }

  // optimistic_tail[d][s]: sum over order positions >= d of the cheapest
  // tile cost of that thread (relaxation: ignores tile exclusivity).
  st.optimistic_tail.assign(n + 1, std::vector<double>(num_slots, 0.0));
  for (std::size_t d = n; d-- > 0;) {
    st.optimistic_tail[d] = st.optimistic_tail[d + 1];
    const std::size_t j = st.thread_order[d];
    st.optimistic_tail[d][table.slots()[j]] +=
        cache.row(j)[st.tile_order[j][0]];
  }

  // Problem-wide bound from the per-application assignment relaxations.
  {
    AssignmentWorkspace ws;
    st.global_lb = max_apl_lower_bound(problem, cache, ws);
  }

  // Incumbent: the SSS heuristic solution.
  SortSelectSwapMapper sss;
  const Mapping warm = sss.map(problem);
  st.best_obj = evaluate(problem, warm).objective;
  st.best_assignment.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    st.best_assignment[d] = warm.tile_of(st.thread_order[d]);
  }

  st.app_numerator.assign(num_slots, 0.0);
  st.bound_numerator.assign(num_slots, 0.0);
  st.assigned_tile.assign(n, 0);
  st.tile_used.assign(n, 0);
  st.dfs(0);

  ExactResult result;
  result.mapping.thread_to_tile.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    result.mapping.thread_to_tile[st.thread_order[d]] =
        st.best_assignment[d];
  }
  result.max_apl = st.best_obj;
  result.nodes_explored = st.nodes;
  result.proven_optimal = !st.budget_hit;
  return result;
}

}  // namespace nocmap
