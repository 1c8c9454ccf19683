// Linear-assignment solver (the Hungarian method of paper reference [15]).
//
// The single-application mapping problem (SAM, Section IV.A) and the exact
// Global baseline both reduce to minimum-cost matching on a dense cost
// matrix: cost[j][k] = c_j·TC(k) + m_j·TM(k) (eq. 13). We implement the
// O(n³) shortest-augmenting-path formulation with dual potentials
// (Jonker–Volgenant style), which is exact and fast enough for thousands of
// tiles.
//
// The one call surface is `AssignmentWorkspace::solve{,_warm}(CostView)`.
// The workspace owns every scratch array (potentials, minv, the free and
// reached column lists, path, result), so after the first solve of a given
// size there is zero heap traffic per call; `CostView` reads costs straight
// out of any row-major table (e.g. the memoized ThreadCostCache) through an
// optional column gather, so no per-call matrix is ever materialized.
// `solve_warm` additionally carries the column potentials from the previous
// solve, which shortens the augmenting paths when consecutive solves list
// their columns in the same order — the online service's placement and
// phase-change solves (DESIGN.md §8). `CostMatrix` is an owning dense
// table for the brute-force reference and for tests.
//
// Each shortest-path step of a row insertion is one pass over an ascending
// list of the columns the row's search has not reached: it applies the
// previous step's pending `minv[j] -= delta`, relaxes the column and keeps
// the first lowest minimum, while the reached columns' `u += delta` /
// `v -= delta` walk an explicit list. Every element sees the floating-point
// operations of the textbook step (two passes over all columns with a
// `used` flag each) in the same order, so results and `assign.path_steps`
// are bit-identical to it (DESIGN.md §8). A step that finds no finite
// reduced cost throws instead of searching forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace nocmap {

/// Dense row-major cost matrix for the assignment problem.
class CostMatrix {
 public:
  CostMatrix(std::size_t rows, std::size_t cols, double init = 0.0);

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Non-owning view of a rows×cols cost block inside a row-major table with
/// arbitrary row stride, optionally gathering columns through an index
/// array: at(r, c) = data[r·stride + (col_index ? col_index[c] : c)].
///
/// This is what lets SAM solve directly over ThreadCostCache rows (stride =
/// num_tiles, col_index = the application's tile list) without copying an
/// n×n matrix per call. The viewed data and index array must outlive the
/// view; the index type is the library's TileId (std::uint32_t).
class CostView {
 public:
  CostView(const double* data, std::size_t rows, std::size_t cols,
           std::size_t stride, const std::uint32_t* col_index = nullptr)
      : data_(data), rows_(rows), cols_(cols), stride_(stride),
        col_index_(col_index) {
    NOCMAP_REQUIRE(rows > 0 && cols > 0, "cost view must be non-empty");
    NOCMAP_REQUIRE(col_index != nullptr || cols <= stride,
                   "dense cost view wider than its stride");
  }

  /// Dense view of a whole CostMatrix.
  static CostView of(const CostMatrix& m) {
    return CostView(m.data(), m.rows(), m.cols(), m.cols());
  }

  double at(std::size_t r, std::size_t c) const {
    NOCMAP_ASSERT(r < rows_ && c < cols_);
    return data_[r * stride_ + (col_index_ ? col_index_[c] : c)];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }
  const double* data() const { return data_; }
  const std::uint32_t* col_index() const { return col_index_; }

 private:
  const double* data_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t stride_;
  const std::uint32_t* col_index_;
};

/// Result of an assignment: row r is assigned column `row_to_col[r]`.
struct Assignment {
  std::vector<std::size_t> row_to_col;
  double total_cost = 0.0;
};

/// Reusable scratch + warm-start state for the assignment kernel.
///
/// All arrays grow to the largest instance seen and are reused afterwards —
/// steady-state solves perform no heap allocation. Rectangular instances
/// with rows < cols are supported (the unmatched columns are simply left
/// free), which is how the relaxed per-application bounds avoid padding
/// with dummy rows. A rectangular solve first drops every column that costs
/// more, in every row, than that row's largest cost over the rows-many
/// columns of least total: each row then has rows-many strictly cheaper
/// columns, so no optimal matching uses a dropped column and the kernel
/// would never reach one. It runs on the kept columns in their order, with
/// the same floating-point operations and tie-breaks, and leaves the
/// potentials and matching as the full solve would (DESIGN.md §8).
///
/// Warm starts: `solve_warm` keeps the column potentials v from the
/// previous solve whenever the instance is square and the column count
/// matches (row potentials are always re-derived — on square instances the
/// kernel is correct for *any* initial potentials, so warmth is purely a
/// speed heuristic and never affects optimality). Rectangular solves always
/// run cold: optimality there requires zero potential on whichever columns
/// end up unmatched, which carried potentials cannot guarantee.
/// The returned assignment may differ between warm and cold starts only
/// when the instance has multiple optima, so a warm solve's tie choice
/// depends on the workspace's previous solve.
class AssignmentWorkspace {
 public:
  AssignmentWorkspace() = default;

  /// Cold solve: potentials reset to zero first. Throws when no
  /// finite-cost assignment exists; the warm state is then dropped.
  const Assignment& solve(const CostView& view);

  /// Warm solve: reuses the previous solve's column potentials when the
  /// instance is square and the column count matches (falls back to a cold
  /// solve otherwise — in particular every rectangular solve runs cold).
  const Assignment& solve_warm(const CostView& view);

 private:
  void solve_impl(const CostView& view, bool warm);
  /// Rectangular solves: fills cols_ with the ascending positions of the
  /// columns some optimal matching may use and kept_index_ with their data
  /// columns, and returns how many there are (nc when none can go).
  template <typename ColMap>
  std::size_t keep_usable_columns(const double* data, std::size_t stride,
                                  ColMap col, std::size_t nr, std::size_t nc);
  /// Returns the number of shortest-path scan steps (inner Dijkstra
  /// iterations across all row insertions) — the quantity warm starts
  /// shrink, exported through the observability counters.
  template <typename ColMap>
  std::uint64_t run_kernel(const double* data, std::size_t stride, ColMap col,
                           std::size_t nr, std::size_t nc);

  std::vector<double> u_;     // row potentials, 1-based
  std::vector<double> v_;     // column potentials, 1-based
  std::vector<double> minv_;  // per-column path minima
  std::vector<std::size_t> p_;    // p_[col] = row matched to col
  std::vector<std::size_t> way_;  // alternating-path predecessor
  std::vector<std::size_t> free_;     // columns not yet reached, ascending
  std::vector<std::size_t> reached_;  // columns reached by this row's search
  // Rectangular column pruning: per-column cost sums, per-column keep
  // marks, the kept positions and their data columns (gathered).
  std::vector<double> col_total_;
  std::vector<char> keep_;
  std::vector<std::uint32_t> cols_;
  std::vector<std::uint32_t> kept_index_;
  Assignment result_;
  std::size_t warm_cols_ = 0;  // column count the stored v_ is valid for
};

/// Exhaustive O(n!) reference solver; usable for n ≤ 10. Exists so property
/// tests can verify the Hungarian implementation against ground truth.
Assignment solve_assignment_brute_force(const CostMatrix& cost);

/// Total cost of an explicit assignment under `cost` (validation helper).
/// The size precondition throws; per-element column indices are checked
/// with NOCMAP_ASSERT only (debug builds), since this runs in hot loops.
double assignment_cost(const CostMatrix& cost,
                       const std::vector<std::size_t>& row_to_col);

}  // namespace nocmap
