#include "core/sam.h"

#include "assign/hungarian.h"

namespace nocmap {

namespace {

/// Shared tail of every overload: translate the assignment's column
/// permutation back to tile ids.
SamResult finish_sam(const Assignment& assignment,
                     std::span<const TileId> tiles, double volume) {
  SamResult result;
  result.tiles.resize(tiles.size());
  for (std::size_t j = 0; j < tiles.size(); ++j) {
    result.tiles[j] = tiles[assignment.row_to_col[j]];
  }
  result.apl = volume > 0.0 ? assignment.total_cost / volume : 0.0;
  return result;
}

}  // namespace

SamResult solve_sam(std::span<const ThreadProfile> threads,
                    std::span<const TileId> tiles,
                    const TileLatencyModel& model) {
  NOCMAP_REQUIRE(threads.size() == tiles.size(),
                 "SAM needs as many tiles as threads");
  NOCMAP_REQUIRE(!threads.empty(), "SAM on empty application");

  double volume = 0.0;
  for (const ThreadProfile& prof : threads) volume += prof.total_rate();
  std::vector<double> cost;
  AssignmentWorkspace ws;
  return finish_sam(ws.solve(sam_cost_view(threads, tiles, model, cost)),
                    tiles, volume);
}

SamResult solve_sam(const ThreadCostCache& cache, std::size_t first_thread,
                    std::span<const TileId> tiles, AssignmentWorkspace& ws,
                    bool warm) {
  NOCMAP_REQUIRE(!tiles.empty(), "SAM on empty application");
  const CostView view = cache.sam_view(first_thread, tiles);
  const Assignment& assignment = warm ? ws.solve_warm(view) : ws.solve(view);
  return finish_sam(assignment, tiles,
                    cache.rate_sum(first_thread, tiles.size()));
}

}  // namespace nocmap
