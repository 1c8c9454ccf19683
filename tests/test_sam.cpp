#include "core/sam.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace nocmap {
namespace {

LatencyParams fig5_params() {
  return {.td_q = 0.0, .td_s = 1.0};
}

/// Solves one application the way SSS does: through a ThreadCostCache over
/// the chip and a fresh workspace.
SamResult solve_app(const std::vector<ThreadProfile>& threads,
                    std::span<const TileId> tiles,
                    const TileLatencyModel& model) {
  const ThreadCostCache cache(Workload({Application{"app", threads}}), model);
  AssignmentWorkspace ws;
  return solve_sam(cache, 0, tiles, ws);
}

double apl_of(std::span<const ThreadProfile> threads,
              std::span<const TileId> tiles, const TileLatencyModel& model) {
  double weighted = 0.0, volume = 0.0;
  for (std::size_t j = 0; j < threads.size(); ++j) {
    weighted += threads[j].cache_rate * model.tc(tiles[j]) +
                threads[j].memory_rate * model.tm(tiles[j]);
    volume += threads[j].total_rate();
  }
  return weighted / volume;
}

TEST(Sam, SingleThreadTrivial) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, fig5_params());
  const std::vector<ThreadProfile> threads{{2.0, 1.0}};
  const std::vector<TileId> tiles{5};
  const SamResult r = solve_app(threads, tiles, model);
  EXPECT_EQ(r.tiles, tiles);
  const double expected =
      (2.0 * model.tc(5) + 1.0 * model.tm(5)) / 3.0;
  EXPECT_NEAR(r.apl, expected, 1e-12);
}

// The paper's Figure-5 intuition: within an application, the hottest thread
// gets the lowest-TC tile.
TEST(Sam, HotThreadGetsBestTile) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, fig5_params());
  const std::vector<ThreadProfile> threads{
      {0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}, {0.4, 0.0}};
  // One corner (TC high), two edges, one center (TC low).
  const std::vector<TileId> tiles{mesh.tile_at(0, 0), mesh.tile_at(0, 1),
                                  mesh.tile_at(1, 0), mesh.tile_at(1, 1)};
  const SamResult r = solve_app(threads, tiles, model);
  EXPECT_EQ(r.tiles[3], mesh.tile_at(1, 1));  // 0.4 -> center
  EXPECT_EQ(r.tiles[0], mesh.tile_at(0, 0));  // 0.1 -> corner
  // Paper Fig. 5(a): per-application optimal APL is 10.3375 cycles.
  EXPECT_NEAR(r.apl, 10.3375, 1e-9);
}

TEST(Sam, ResultIsPermutationOfInputTiles) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  Rng rng(3);
  std::vector<ThreadProfile> threads(16);
  for (auto& t : threads) {
    t = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0)};
  }
  std::vector<TileId> tiles;
  for (std::size_t v : random_permutation(64, rng)) {
    tiles.push_back(static_cast<TileId>(v));
    if (tiles.size() == 16) break;
  }
  const SamResult r = solve_app(threads, tiles, model);
  auto sorted_in = tiles;
  auto sorted_out = r.tiles;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);
}

// Property: SAM is optimal — no random permutation of the tiles beats it.
class SamOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(SamOptimalityProperty, BeatsRandomPermutations) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  std::vector<ThreadProfile> threads(12);
  for (auto& t : threads) {
    t = {rng.uniform(0.0, 20.0), rng.uniform(0.0, 4.0)};
  }
  std::vector<TileId> tiles;
  for (std::size_t v : random_permutation(64, rng)) {
    tiles.push_back(static_cast<TileId>(v));
    if (tiles.size() == 12) break;
  }
  const SamResult r = solve_app(threads, tiles, model);
  EXPECT_NEAR(r.apl, apl_of(threads, r.tiles, model), 1e-9);
  for (int trial = 0; trial < 100; ++trial) {
    auto shuffled = tiles;
    rng.shuffle(shuffled);
    EXPECT_LE(r.apl, apl_of(threads, shuffled, model) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamOptimalityProperty,
                         ::testing::Range(0, 15));

TEST(Sam, MemoryTrafficInfluencesAssignment) {
  // A memory-heavy thread should prefer a corner (MC) tile even though its
  // cache latency is the worst there.
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  const std::vector<ThreadProfile> threads{
      {0.1, 10.0},  // memory-dominated
      {10.0, 0.1},  // cache-dominated
  };
  const std::vector<TileId> tiles{mesh.tile_at(0, 0),   // corner, has MC
                                  mesh.tile_at(3, 3)};  // center
  const SamResult r = solve_app(threads, tiles, model);
  EXPECT_EQ(r.tiles[0], mesh.tile_at(0, 0));
  EXPECT_EQ(r.tiles[1], mesh.tile_at(3, 3));
}

}  // namespace
}  // namespace nocmap
