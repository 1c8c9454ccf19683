// Migration-aware dynamic remapping (extension of paper Section IV.B).
//
// The paper proposes re-solving OBM whenever applications arrive or leave.
// A from-scratch re-solve may move every thread, and each migration costs
// real work (context transfer, private-cache warmup). This module keeps
// SSS's balance while minimizing migrations:
//
//   1. Solve the new OBM instance with sort-select-swap — this fixes the
//      per-application *tile sets*, which is what latency balance depends
//      on (each application's APL is determined by its set of tiles and
//      its internal assignment).
//   2. Within each application, assign threads to that tile set with a
//      migration-aware SAM: cost_{jk} = c_j·TC(k) + m_j·TM(k) +
//      λ·(c_j+m_j)·[k ≠ old tile of j]. The penalty λ is in cycles — the
//      latency-equivalent price of moving one unit of request rate — so it
//      composes dimensionally with the latency cost.
//
// λ = 0 reproduces plain SSS; λ → ∞ keeps every thread whose old tile is
// in its application's new tile set in place.
//
// The λ search and the move count below are shared with the online
// service; the penalized cost matrix is core/sam.h's sam_cost_view.
#pragma once

#include <functional>
#include <span>

#include "core/metrics.h"
#include "core/sam.h"
#include "core/sss_mapper.h"

namespace nocmap {

struct RemapResult {
  Mapping mapping;
  /// Migrations relative to the old mapping, as count_migrations counts
  /// them (zero-rate pad threads move for free).
  std::size_t moved_threads = 0;
  /// Metrics of the new mapping under the (new) problem.
  LatencyReport report;
};

/// Balanced remap with migration penalty λ (cycles per unit rate moved).
/// `old_mapping` must be a valid permutation for the problem's tile count;
/// threads beyond its size (e.g. a freshly arrived application occupying
/// previously idle pad slots) are treated as having no old position.
RemapResult remap_balanced(const ObmProblem& problem,
                           const Mapping& old_mapping,
                           double migration_penalty_cycles,
                           const SssOptions& sss_options = {});

/// Budgeted remap: remap_balanced with a *hard* cap on the number of
/// migrated threads instead of a penalty the caller must tune.
struct BudgetedRemapResult {
  /// Mapping/moved/report of the budget-respecting remap. The invariant is
  /// `remap.moved_threads <= max_moved_threads`, always.
  RemapResult remap;
  /// The migration penalty λ (cycles) whose solution met the budget: the
  /// exact envelope breakpoint of the search; 0 when the unconstrained remap
  /// was already within budget, or when a fitting solution ties with it.
  double penalty_cycles = 0.0;
  /// True when even maximal stickiness could not meet the budget (the fresh
  /// tile sets force more moves than allowed) and the old mapping was kept
  /// unchanged instead.
  bool reverted_to_old = false;
};

/// Finds the cheapest-possible remap that migrates at most
/// `max_moved_threads` threads (zero-rate pad threads move for free and are
/// not counted, as in remap_balanced):
///
///   1. Threads whose old tile is not in their application's fresh tile set
///      *must* move under any penalty; when those forced moves alone exceed
///      the budget, the old mapping is returned unchanged (an identity
///      remap, `reverted_to_old` set) without solving an assignment.
///   2. Solve the unconstrained remap (λ = 0); done if within budget.
///   3. Otherwise search (smallest_fitting_penalty) for the smallest
///      migration penalty λ whose sticky solution fits the budget, so
///      quality degrades no more than the budget demands.
///
/// A budget of 0 therefore always produces an identity remap; a budget of
/// SIZE_MAX (or >= the real-thread count) reproduces remap_balanced(λ=0)
/// exactly. Unlike remap_balanced, `old_mapping` must be a valid permutation
/// for the problem (step 1's fallback has to be a legal mapping).
BudgetedRemapResult remap_budgeted(const ObmProblem& problem,
                                   const Mapping& old_mapping,
                                   std::size_t max_moved_threads,
                                   const SssOptions& sss_options = {});

/// One probe of the penalty search: the line (core/sam.h's penalty_line)
/// of the sticky solution optimal at the probed λ, and whether that
/// solution meets the migration budget.
struct PenaltyProbe {
  PenaltyLine line;
  bool fits = false;
};

/// Smallest migration penalty λ (cycles) whose sticky solution fits the
/// budget. The optimum over λ is the concave, piecewise-linear lower
/// envelope of the solutions' lines, so the search walks its breakpoints:
///
///   1. Probe λ = 1, 16, 256, … until a solution fits; +∞ past 1e30.
///   2. Between the last line that did not fit (`at_zero`, the caller's
///      λ = 0 solution, before any probe) and the first that did, probe
///      where the two lines cross. A solution whose weight lies strictly
///      between theirs is a new envelope line and replaces the one on its
///      side; otherwise the two are adjacent and the crossing is the exact
///      breakpoint. A crossing at an end of the two lines' λ range is
///      returned without a probe.
///
/// Each step of 2. narrows the weight range, so the walk ends after at
/// most as many probes as there are distinct weights. A `probe` that keeps
/// each fitting solution ends up holding one that is optimal at the
/// returned λ.
double smallest_fitting_penalty(
    const PenaltyLine& at_zero,
    const std::function<PenaltyProbe(double)>& probe);

/// Migrations between two placements of `threads`: positive-rate threads
/// whose tile changed, plus positive-rate threads with no old tile
/// (t >= before.size()). Zero-rate pad threads move for free.
std::size_t count_migrations(std::span<const ThreadProfile> threads,
                             std::span<const TileId> before,
                             std::span<const TileId> after);

}  // namespace nocmap
