#include "assign/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.h"

namespace nocmap {

namespace {

// Kernel statistics (DESIGN.md §9, docs/metrics-schema.md). Counted locally
// per solve and published with one add each, so the instrumentation stays
// off the inner scan loop.
const obs::Counter c_cold_solves("assign.cold_solves");
const obs::Counter c_warm_solves("assign.warm_solves");
const obs::Counter c_warm_hits("assign.warm_hits");
const obs::Counter c_rows_inserted("assign.rows_inserted");
const obs::Counter c_path_steps("assign.path_steps");
const obs::Counter c_rect_solves("assign.rect_solves");
const obs::Counter c_rect_cols("assign.rect_cols");
const obs::Counter c_rect_cols_kept("assign.rect_cols_kept");

}  // namespace

CostMatrix::CostMatrix(std::size_t rows, std::size_t cols, double init)
    : rows_(rows), cols_(cols), data_(rows * cols, init) {
  NOCMAP_REQUIRE(rows > 0 && cols > 0, "cost matrix must be non-empty");
}

double& CostMatrix::at(std::size_t r, std::size_t c) {
  NOCMAP_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double CostMatrix::at(std::size_t r, std::size_t c) const {
  NOCMAP_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

namespace {

/// Identity column map — lets the kernel template collapse the gather away
/// on dense views.
struct IdentityCol {
  std::size_t operator()(std::size_t j) const { return j; }
};

/// Gathering column map for strided views over a shared cost table.
struct GatherCol {
  const std::uint32_t* index;
  std::size_t operator()(std::size_t j) const { return index[j]; }
};

}  // namespace

// The classic shortest-augmenting-path kernel with dual potentials,
// generalized to rows <= cols. Rows are inserted one at a time; each
// insertion runs a Dijkstra-like scan over reduced costs and shifts the
// potentials so the invariant (matched edges tight, inserted rows dual-
// feasible) is restored. The invariant is vacuous before the first
// insertion, so *any* initial potentials — all-zero (cold) or carried over
// from a previous solve (warm) — yield an exact optimum; warmth only
// shortens the augmenting paths.
//
// Each scan step is one pass over the ascending list of still-free columns,
// compacted as it goes; DESIGN.md §8 shows why it is bit-identical to the
// textbook two-pass step over all columns.
template <typename ColMap>
std::uint64_t AssignmentWorkspace::run_kernel(const double* data,
                                              std::size_t stride, ColMap col,
                                              std::size_t nr, std::size_t nc) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t path_steps = 0;
  for (std::size_t i = 1; i <= nr; ++i) {
    p_[0] = i;
    std::size_t j0 = 0;
    std::fill(minv_.begin(), minv_.begin() + static_cast<std::ptrdiff_t>(nc) + 1,
              kInf);
    std::iota(free_.begin(), free_.begin() + static_cast<std::ptrdiff_t>(nc),
              std::size_t{1});
    std::size_t num_free = nc;
    reached_.clear();
    double pending = 0.0;  // the previous step's delta, not yet in minv
    do {
      ++path_steps;
      reached_.push_back(j0);
      const std::size_t i0 = p_[j0];
      const double* row = data + (i0 - 1) * stride;
      const double u0 = u_[i0];
      double delta = kInf;
      std::size_t j1 = 0;
      std::size_t kept = 0;
      for (std::size_t k = 0; k < num_free; ++k) {
        const std::size_t j = free_[k];
        if (j == j0) continue;  // reached last step: leaves the free list
        free_[kept++] = j;
        double m = minv_[j] - pending;
        const double cur = row[col(j - 1)] - u0 - v_[j];
        if (cur < m) {
          m = cur;
          way_[j] = j0;
        }
        minv_[j] = m;
        if (m < delta) {
          delta = m;
          j1 = j;
        }
      }
      num_free = kept;
      // No finite reduced cost reaches a free column (a cost of +inf or
      // NaN on every remaining edge): no augmenting path exists.
      NOCMAP_REQUIRE(delta < kInf,
                     "assignment has no finite-cost augmenting path");
      for (const std::size_t j : reached_) {
        u_[p_[j]] += delta;
        v_[j] -= delta;
      }
      pending = delta;
      j0 = j1;
    } while (p_[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way_[j0];
      p_[j0] = p_[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  return path_steps;
}

// Column pruning for rows < cols (DESIGN.md §8). The nr columns with the
// least totals give each row a threshold, its largest cost among them; a
// column that costs more than the threshold in every row leaves each row nr
// strictly cheaper columns, so no optimal partial matching of any prefix of
// the rows uses it and the full kernel never reaches it. Dropping those
// columns while keeping the rest in ascending order leaves every floating-
// point operation and tie-break of the solve as it was.
template <typename ColMap>
std::size_t AssignmentWorkspace::keep_usable_columns(const double* data,
                                                     std::size_t stride,
                                                     ColMap col,
                                                     std::size_t nr,
                                                     std::size_t nc) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  col_total_.assign(nc, 0.0);
  double* total = col_total_.data();
  for (std::size_t r = 0; r < nr; ++r) {
    const double* row = data + r * stride;
    for (std::size_t c = 0; c < nc; ++c) total[c] += row[col(c)];
  }
  // A NaN total sorts as +inf, so the selection order stays strict.
  for (std::size_t c = 0; c < nc; ++c) {
    if (std::isnan(total[c])) total[c] = kInf;
  }
  cols_.resize(nc);
  std::iota(cols_.begin(), cols_.end(), 0u);
  const auto last = cols_.begin() + static_cast<std::ptrdiff_t>(nr - 1);
  std::nth_element(cols_.begin(), last, cols_.end(),
                   [total](std::uint32_t a, std::uint32_t b) {
                     return total[a] < total[b];
                   });
  // A non-finite cost among the selected columns leaves some row without a
  // finite threshold: keep everything.
  if (!(total[*last] < kInf)) return nc;
  // Each row marks the columns within its threshold. A NaN cost never
  // compares above the threshold, so it keeps its column.
  keep_.assign(nc, 0);
  char* keep = keep_.data();
  for (std::size_t r = 0; r < nr; ++r) {
    const double* row = data + r * stride;
    double limit = -kInf;
    for (std::size_t k = 0; k < nr; ++k) {
      limit = std::max(limit, row[col(cols_[k])]);
    }
    for (std::size_t c = 0; c < nc; ++c) keep[c] |= !(row[col(c)] > limit);
  }
  kept_index_.resize(nc);
  std::size_t kept = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    if (!keep[c]) continue;
    cols_[kept] = static_cast<std::uint32_t>(c);
    kept_index_[kept] = static_cast<std::uint32_t>(col(c));
    ++kept;
  }
  return kept;
}

void AssignmentWorkspace::solve_impl(const CostView& view, bool warm) {
  const std::size_t nr = view.rows();
  const std::size_t nc = view.cols();
  NOCMAP_REQUIRE(nr <= nc,
                 "assignment needs at least as many columns as rows");

  // Carried potentials are only sound on *square* instances: LP
  // complementary slackness demands v = 0 on every unmatched column, and a
  // rectangular solve cannot know up front which columns stay free, so a
  // nonzero carried v would bias the column choice toward stale favourites
  // and can return a non-optimal matching (found by the service_replay
  // fuzz oracle as a lower "bound" above a feasible objective).
  const bool warm_hit = warm && warm_cols_ == nc && nr == nc;
  (warm ? c_warm_solves : c_cold_solves).add();
  if (warm_hit) c_warm_hits.add();
  c_rows_inserted.add(nr);

  if (u_.size() < nr + 1) u_.resize(nr + 1);
  if (v_.size() < nc + 1) {
    v_.resize(nc + 1);
    minv_.resize(nc + 1);
    p_.resize(nc + 1);
    way_.resize(nc + 1);
    free_.resize(nc);
    reached_.reserve(nc + 1);
  }

  // Row potentials are always re-derived (the first delta of each row's
  // insertion absorbs any initial value); column potentials persist across
  // warm solves of the same square size.
  std::fill(u_.begin(), u_.begin() + static_cast<std::ptrdiff_t>(nr) + 1, 0.0);
  if (!warm_hit) {
    std::fill(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(nc) + 1,
              0.0);
  }
  std::fill(p_.begin(), p_.begin() + static_cast<std::ptrdiff_t>(nc) + 1,
            std::size_t{0});

  // Dropped first, so a solve that throws leaves no half-updated
  // potentials for the next solve_warm.
  warm_cols_ = 0;
  std::size_t kept = nc;
  if (nr < nc) {
    kept = view.col_index() != nullptr
               ? keep_usable_columns(view.data(), view.stride(),
                                     GatherCol{view.col_index()}, nr, nc)
               : keep_usable_columns(view.data(), view.stride(),
                                     IdentityCol{}, nr, nc);
    c_rect_solves.add();
    c_rect_cols.add(nc);
    c_rect_cols_kept.add(kept);
  }
  std::uint64_t path_steps = 0;
  if (kept < nc) {
    path_steps = run_kernel(view.data(), view.stride(),
                            GatherCol{kept_index_.data()}, nr, kept);
    // Back to the view's column numbering; a dropped column ends where the
    // full kernel leaves it, unmatched at potential 0. Descending, so every
    // kept entry moves up before its new slot is overwritten.
    for (std::size_t j = nc, k = kept; j >= 1; --j) {
      if (k > 0 && cols_[k - 1] + 1 == j) {
        v_[j] = v_[k];
        p_[j] = p_[k];
        --k;
      } else {
        v_[j] = 0.0;
        p_[j] = 0;
      }
    }
  } else if (view.col_index() != nullptr) {
    path_steps = run_kernel(view.data(), view.stride(),
                            GatherCol{view.col_index()}, nr, nc);
  } else {
    path_steps = run_kernel(view.data(), view.stride(), IdentityCol{}, nr, nc);
  }
  c_path_steps.add(path_steps);
  warm_cols_ = nc;

  result_.row_to_col.assign(nr, 0);
  // Optimal cost straight from the potentials: every matched edge is tight
  // (cost = u + v by construction), so the matching's cost is the sum of
  // its endpoints' potentials — no second pass over the cost data.
  double total = 0.0;
  for (std::size_t j = 1; j <= nc; ++j) {
    if (p_[j] == 0) continue;  // column left free (rectangular instance)
    result_.row_to_col[p_[j] - 1] = j - 1;
    total += u_[p_[j]] + v_[j];
  }
  result_.total_cost = total;

#ifndef NDEBUG
  // Debug cross-check: the potentials sum must agree with an explicit
  // re-walk of the chosen entries (up to accumulated rounding).
  double walk = 0.0;
  for (std::size_t r = 0; r < nr; ++r) {
    walk += view.at(r, result_.row_to_col[r]);
  }
  NOCMAP_ASSERT(std::abs(walk - total) <=
                1e-9 * std::max(1.0, std::abs(walk)));
#endif
}

const Assignment& AssignmentWorkspace::solve(const CostView& view) {
  solve_impl(view, /*warm=*/false);
  return result_;
}

const Assignment& AssignmentWorkspace::solve_warm(const CostView& view) {
  solve_impl(view, /*warm=*/true);
  return result_;
}

Assignment solve_assignment_brute_force(const CostMatrix& cost) {
  NOCMAP_REQUIRE(cost.rows() == cost.cols(),
                 "brute-force solver requires a square matrix");
  const std::size_t n = cost.rows();
  NOCMAP_REQUIRE(n <= 10, "brute-force solver limited to n <= 10");

  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Assignment best;
  best.total_cost = std::numeric_limits<double>::infinity();
  do {
    const double c = assignment_cost(cost, perm);
    if (c < best.total_cost) {
      best.total_cost = c;
      best.row_to_col = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

double assignment_cost(const CostMatrix& cost,
                       const std::vector<std::size_t>& row_to_col) {
  NOCMAP_REQUIRE(row_to_col.size() == cost.rows(),
                 "assignment size must match matrix rows");
  double total = 0.0;
  for (std::size_t r = 0; r < row_to_col.size(); ++r) {
    NOCMAP_ASSERT(row_to_col[r] < cost.cols());
    total += cost.at(r, row_to_col[r]);
  }
  return total;
}

}  // namespace nocmap
