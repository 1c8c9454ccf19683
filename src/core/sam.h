// Single-Application Mapping (SAM, paper Section IV.A).
//
// Given one application's threads and an equal-sized set of candidate tiles,
// find the thread→tile assignment minimizing the application's APL. Because
// each thread's latency contribution depends only on its own tile (the L2 is
// address-hashed over the whole chip and the MC target is fixed per tile),
// this is a linear assignment problem with cost_{jk} = c_j·TC(k) + m_j·TM(k)
// (eq. 13), solved exactly by the Hungarian method in O(N_a³).
#pragma once

#include <span>
#include <vector>

#include "assign/hungarian.h"
#include "core/cost_cache.h"
#include "latency/model.h"
#include "workload/workload.h"

namespace nocmap {

/// Result of a SAM solve: tiles[j] is the tile of the j-th input thread,
/// and apl is the minimized application APL (eq. 12).
struct SamResult {
  std::vector<TileId> tiles;
  double apl = 0.0;
};

/// Eq. 13: the latency cost c·TC(k) + m·TM(k) of one thread on tile k.
inline double sam_cost(const ThreadProfile& prof, const TileLatencyModel& model,
                       TileId k) {
  return prof.cache_rate * model.tc(k) + prof.memory_rate * model.tm(k);
}

/// The migration-penalty rule: thread t pays the penalty on tile k when it
/// has an old tile (t < old_tiles.size()) and k is not that tile.
inline bool off_old_tile(std::span<const TileId> old_tiles, std::size_t t,
                         TileId k) {
  return t < old_tiles.size() && old_tiles[t] != k;
}

/// Eq. 13 from thread profiles, for every caller that has no cache
/// (core/remap.h and the online service): fills
/// `cost` row-major with cost[t·|tiles| + k] = c_t·TC(tiles[k]) +
/// m_t·TM(tiles[k]), plus the migration penalty λ·(c_t + m_t) wherever
/// thread t is off its old tile (off_old_tile), and returns a dense view of
/// it. Inline because the online service builds one on every decision.
inline CostView sam_cost_view(std::span<const ThreadProfile> threads,
                              std::span<const TileId> tiles,
                              const TileLatencyModel& model,
                              std::vector<double>& cost,
                              std::span<const TileId> old_tiles = {},
                              double penalty_cycles = 0.0) {
  const std::size_t rows = threads.size();
  const std::size_t cols = tiles.size();
  cost.resize(rows * cols);
  for (std::size_t t = 0; t < rows; ++t) {
    const ThreadProfile& prof = threads[t];
    for (std::size_t k = 0; k < cols; ++k) {
      double c = sam_cost(prof, model, tiles[k]);
      if (off_old_tile(old_tiles, t, tiles[k])) {
        c += penalty_cycles * prof.total_rate();
      }
      cost[t * cols + k] = c;
    }
  }
  return CostView(cost.data(), rows, cols, cols);
}

/// A placement's price under sam_cost_view's matrix as a line in the
/// penalty λ: cost + λ·weight, where `cost` is its eq.-13 latency cost and
/// `weight` its migration weight, the summed rates of the threads off their
/// old tile. The optimum over placements is the lower envelope of these
/// lines, which core/remap.h's penalty search walks.
struct PenaltyLine {
  double cost = 0.0;
  double weight = 0.0;
};

/// The PenaltyLine of `placed` (placed[t] is thread t's tile).
inline PenaltyLine penalty_line(std::span<const ThreadProfile> threads,
                                std::span<const TileId> placed,
                                const TileLatencyModel& model,
                                std::span<const TileId> old_tiles) {
  PenaltyLine line;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    line.cost += sam_cost(threads[t], model, placed[t]);
    if (off_old_tile(old_tiles, t, placed[t])) {
      line.weight += threads[t].total_rate();
    }
  }
  return line;
}

/// Optimally assigns the contiguous global thread range
/// [first_thread, first_thread + tiles.size()) to `tiles`: a cold solve in
/// place over the shared memoized ThreadCostCache through a lazy CostView
/// (no matrix materialization) in a caller-owned workspace. Pure with
/// respect to the cache, so concurrent calls with distinct workspaces (e.g.
/// the per-application SAM solves of the parallel SSS stages) are safe.
SamResult solve_sam(const ThreadCostCache& cache, std::size_t first_thread,
                    std::span<const TileId> tiles, AssignmentWorkspace& ws);

}  // namespace nocmap
