#include "core/sam.h"

#include "assign/hungarian.h"

namespace nocmap {

SamResult solve_sam(const ThreadCostCache& cache, std::size_t first_thread,
                    std::span<const TileId> tiles, AssignmentWorkspace& ws) {
  NOCMAP_REQUIRE(!tiles.empty(), "SAM on empty application");
  const Assignment& assignment = ws.solve(cache.sam_view(first_thread, tiles));
  // Translate the assignment's column permutation back to tile ids.
  SamResult result;
  result.tiles.resize(tiles.size());
  for (std::size_t j = 0; j < tiles.size(); ++j) {
    result.tiles[j] = tiles[assignment.row_to_col[j]];
  }
  const double volume = cache.rate_sum(first_thread, tiles.size());
  result.apl = volume > 0.0 ? assignment.total_cost / volume : 0.0;
  return result;
}

}  // namespace nocmap
