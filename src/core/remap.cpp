#include "core/remap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "assign/hungarian.h"
#include "core/sam.h"
#include "obs/metrics.h"

namespace nocmap {

namespace {

// The budgeted penalty search (docs/metrics-schema.md).
const obs::Counter c_penalty_searches("remap.penalty_searches");
const obs::Counter c_penalty_probes("remap.penalty_probes");

/// Stage 2 of the migration-aware remap: within each application, assign
/// threads onto the fresh tile sets with the migration penalty λ folded into
/// the cost (see the header comment). Factored out so remap_budgeted can
/// re-run it under different penalties without repeating the SSS solve.
Mapping assign_within_tile_sets(const ObmProblem& problem,
                                const Mapping& fresh,
                                const Mapping& old_mapping,
                                double migration_penalty_cycles) {
  const Workload& wl = problem.workload();
  const std::span<const TileId> fresh_tiles = fresh.thread_to_tile;
  const std::span<const TileId> old_tiles = old_mapping.thread_to_tile;

  Mapping mapping;
  mapping.thread_to_tile.resize(problem.num_threads());
  AssignmentWorkspace ws;
  std::vector<double> cost;
  for (std::size_t a = 0; a < wl.num_applications(); ++a) {
    const std::size_t lo = wl.first_thread(a);
    const std::size_t dn = wl.last_thread(a) - lo;
    const std::span<const TileId> tiles = fresh_tiles.subspan(lo, dn);
    // Threads beyond the old mapping have no old tile to stick to.
    const Assignment& assignment = ws.solve(sam_cost_view(
        wl.threads().subspan(lo, dn), tiles, problem.model(), cost,
        old_tiles.subspan(std::min(lo, old_tiles.size())),
        migration_penalty_cycles));
    for (std::size_t t = 0; t < dn; ++t) {
      mapping.thread_to_tile[lo + t] = tiles[assignment.row_to_col[t]];
    }
  }
  return mapping;
}

/// The remap result for `mapping`: its migrations away from `old_mapping`
/// and its metrics under the problem.
RemapResult finish_remap(const ObmProblem& problem, const Mapping& old_mapping,
                         Mapping mapping) {
  RemapResult result;
  result.moved_threads =
      count_migrations(problem.workload().threads(),
                       old_mapping.thread_to_tile, mapping.thread_to_tile);
  result.report = evaluate(problem, mapping);
  result.mapping = std::move(mapping);
  return result;
}

/// Real threads whose old tile is absent from their application's fresh
/// tile set: these migrate under *any* penalty, so they lower-bound the
/// move count of every sticky solution.
std::size_t count_forced_moves(const ObmProblem& problem,
                               const Mapping& fresh,
                               const Mapping& old_mapping) {
  const Workload& wl = problem.workload();
  std::size_t forced = 0;
  std::vector<TileId> tiles;
  for (std::size_t a = 0; a < wl.num_applications(); ++a) {
    const std::size_t lo = wl.first_thread(a);
    const std::size_t hi = wl.last_thread(a);
    tiles.assign(fresh.thread_to_tile.begin() +
                     static_cast<std::ptrdiff_t>(lo),
                 fresh.thread_to_tile.begin() +
                     static_cast<std::ptrdiff_t>(hi));
    std::sort(tiles.begin(), tiles.end());
    for (std::size_t j = lo; j < hi; ++j) {
      if (wl.thread(j).total_rate() <= 0.0) continue;
      if (j >= old_mapping.thread_to_tile.size() ||
          !std::binary_search(tiles.begin(), tiles.end(),
                              old_mapping.thread_to_tile[j])) {
        ++forced;
      }
    }
  }
  return forced;
}

}  // namespace

double smallest_fitting_penalty(
    const PenaltyLine& at_zero,
    const std::function<PenaltyProbe(double)>& probe) {
  c_penalty_searches.add();
  const auto run = [&](double lambda) {
    c_penalty_probes.add();
    return probe(lambda);
  };
  // `below` is optimal at lo and does not fit; `above` is optimal at hi and
  // fits.
  PenaltyLine below = at_zero;
  double lo = 0.0;
  double hi = 1.0;
  PenaltyProbe above = run(hi);
  while (!above.fits) {
    below = above.line;
    lo = hi;
    hi *= 16.0;
    if (hi > 1e30) return std::numeric_limits<double>::infinity();
    above = run(hi);
  }
  while (below.weight > above.line.weight) {
    const double cross = (above.line.cost - below.cost) /
                         (below.weight - above.line.weight);
    // A crossing at an end of [lo, hi] leaves the two lines tied there:
    // that end is the breakpoint, and a probe there could only return
    // another tied solution.
    if (!(lo < cross && cross < hi)) return cross <= lo ? lo : hi;
    const PenaltyProbe mid = run(cross);
    if (!(mid.line.weight < below.weight &&
          mid.line.weight > above.line.weight)) {
      return cross;
    }
    if (mid.fits) {
      above = mid;
      hi = cross;
    } else {
      below = mid.line;
      lo = cross;
    }
  }
  return hi;  // parallel lines: `above` is optimal over all of [lo, hi]
}

std::size_t count_migrations(std::span<const ThreadProfile> threads,
                             std::span<const TileId> before,
                             std::span<const TileId> after) {
  std::size_t moved = 0;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    if (threads[t].total_rate() > 0.0 &&
        (t >= before.size() || before[t] != after[t])) {
      ++moved;
    }
  }
  return moved;
}

RemapResult remap_balanced(const ObmProblem& problem,
                           const Mapping& old_mapping,
                           double migration_penalty_cycles,
                           const SssOptions& sss_options) {
  NOCMAP_REQUIRE(migration_penalty_cycles >= 0.0,
                 "migration penalty must be non-negative");
  // Stage 1: fresh balanced solution fixes the per-application tile sets.
  SortSelectSwapMapper sss(sss_options);
  const Mapping fresh = sss.map(problem);
  return finish_remap(problem, old_mapping,
                      assign_within_tile_sets(problem, fresh, old_mapping,
                                              migration_penalty_cycles));
}

BudgetedRemapResult remap_budgeted(const ObmProblem& problem,
                                   const Mapping& old_mapping,
                                   std::size_t max_moved_threads,
                                   const SssOptions& sss_options) {
  NOCMAP_REQUIRE(old_mapping.is_valid_permutation(problem.num_threads()),
                 "budgeted remap needs a valid old mapping to fall back on");
  SortSelectSwapMapper sss(sss_options);
  const Mapping fresh = sss.map(problem);
  const auto moves = [&](const Mapping& mapping) {
    return count_migrations(problem.workload().threads(),
                            old_mapping.thread_to_tile,
                            mapping.thread_to_tile);
  };

  BudgetedRemapResult out;
  // Forced moves lower-bound every assignment within the fresh tile sets,
  // λ = 0 included: when they alone exceed the budget nothing fits, so no
  // assignment is solved and everything stays where it is.
  if (count_forced_moves(problem, fresh, old_mapping) > max_moved_threads) {
    out.reverted_to_old = true;
    out.remap = finish_remap(problem, old_mapping, old_mapping);
    return out;
  }
  const auto line = [&](const Mapping& mapping) {
    return penalty_line(problem.workload().threads(), mapping.thread_to_tile,
                        problem.model(), old_mapping.thread_to_tile);
  };
  Mapping best = assign_within_tile_sets(problem, fresh, old_mapping, 0.0);
  if (moves(best) > max_moved_threads) {
    // The forced moves fit, so the search succeeds (λ → ∞ moves only
    // those) unless the penalty overflows its search range.
    const double penalty =
        smallest_fitting_penalty(line(best), [&](double lambda) {
          Mapping sticky =
              assign_within_tile_sets(problem, fresh, old_mapping, lambda);
          const PenaltyProbe probe{line(sticky),
                                   moves(sticky) <= max_moved_threads};
          if (probe.fits) best = std::move(sticky);
          return probe;
        });
    if (std::isinf(penalty)) {
      best = old_mapping;
      out.reverted_to_old = true;
    } else {
      out.penalty_cycles = penalty;
    }
  }
  out.remap = finish_remap(problem, old_mapping, std::move(best));
  return out;
}

}  // namespace nocmap
