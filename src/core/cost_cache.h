// Memoized thread×tile placement-cost matrix (paper eq. 13).
//
// Every mapping algorithm ultimately scores a placement through the same
// scalar: cost(j, k) = c_j·TC(k) + m_j·TM(k). SAM builds an n×n slice of it
// per Hungarian call, the Global mapper builds the full N×N matrix, and the
// incremental evaluator recomputes entries on every move — historically each
// from the raw model. ThreadCostCache computes the full matrix once per
// problem (O(N²) fused multiply-adds, ~50 µs at N = 256) and shares it:
// SAM's assignment solves, the Global mapper, and the evaluator all read the
// same immutable table. Immutability after construction also makes it safe
// to read concurrently from the SSS window-evaluation workers.
//
// The assignment kernel reads the table in place through `sam_view` (a
// strided CostView gathering the application's tile columns), so no per-call
// matrix is materialized. Per-thread request rates are cached with a
// prefix-sum so any contiguous range's traffic volume (the APL denominator)
// is O(1).
//
// Batch layout: rows are stored with a stride padded up to a multiple of
// kRowBlock doubles (one cache line), so every row starts on its own block
// and a batch-evaluation pass (core/batch_eval.h) can stream thread rows
// j = 0..N-1 exactly once while scoring K candidates against each row. The
// padding cells are zero-filled and never addressed by cost()/row().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "assign/hungarian.h"
#include "latency/model.h"
#include "workload/workload.h"

namespace nocmap {

namespace check_hooks {
/// Mutation-canary fault injection (test-only; DESIGN.md §10). When enabled,
/// every subsequently constructed ThreadCostCache copies thread 0's cost for
/// tile k from tile k+1 — a deliberate off-by-one in the cost copy. The
/// fuzzer's canary self-test turns this on to prove the differential oracles
/// detect and shrink a seeded bug; nothing outside tests may enable it. The
/// probe is a single relaxed atomic load per cache construction, so the
/// production path is unaffected.
void set_cost_cache_off_by_one(bool enabled);
bool cost_cache_off_by_one();
}  // namespace check_hooks

class ThreadCostCache {
 public:
  /// Row padding quantum (doubles per cache line); see the header comment.
  static constexpr std::size_t kRowBlock = 8;

  /// Builds the dense num_threads × num_tiles matrix eagerly.
  ThreadCostCache(const Workload& workload, const TileLatencyModel& model);

  std::size_t num_threads() const { return num_threads_; }
  std::size_t num_tiles() const { return num_tiles_; }

  /// Distance in doubles between consecutive rows (num_tiles padded up to a
  /// multiple of kRowBlock).
  std::size_t row_stride() const { return row_stride_; }

  /// cost(j, k) = c_j·TC(k) + m_j·TM(k) for global thread j on tile k.
  double cost(std::size_t thread, TileId tile) const {
    return costs_[thread * row_stride_ + tile];
  }

  /// Raw row of the cost table for global thread j (num_tiles live entries;
  /// the next row starts row_stride() doubles later).
  const double* row(std::size_t thread) const {
    NOCMAP_ASSERT(thread < num_threads_);
    return &costs_[thread * row_stride_];
  }

  /// Total request rate (c_j + m_j) of global thread j — the APL
  /// denominator contribution, cached alongside the costs.
  double rate(std::size_t thread) const { return rates_[thread]; }

  /// Σ rate(j) for j in [first, first + count) — O(1) from the prefix sum.
  double rate_sum(std::size_t first, std::size_t count) const {
    NOCMAP_ASSERT(first + count <= num_threads_);
    return rate_prefix_[first + count] - rate_prefix_[first];
  }

  /// Lazy n×n SAM cost view for the contiguous global thread range
  /// [first_thread, first_thread + tiles.size()) against `tiles`: reads the
  /// cache in place, no copy. The cache and the `tiles` storage must
  /// outlive the returned view.
  CostView sam_view(std::size_t first_thread,
                    std::span<const TileId> tiles) const;

 private:
  std::size_t num_threads_;
  std::size_t num_tiles_;
  std::size_t row_stride_;     // num_tiles_ rounded up to kRowBlock
  std::vector<double> costs_;  // row-major [thread][tile], padded rows
  std::vector<double> rates_;
  std::vector<double> rate_prefix_;  // rate_prefix_[j] = Σ rates_[0..j)
};

}  // namespace nocmap
