#include "core/cluster_sa_mapper.h"

#include <cmath>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "util/rng.h"

namespace nocmap {

namespace {

/// Tiles per cluster edge.
constexpr std::uint32_t kClusterSide = 2;

/// Tile → cluster index for a mesh tiled by kClusterSide-sized square
/// clusters (ragged edges join the last row/column of clusters).
std::vector<std::size_t> build_clusters(const Mesh& mesh,
                                        std::size_t& num_clusters) {
  const std::uint32_t rows = (mesh.rows() + kClusterSide - 1) / kClusterSide;
  const std::uint32_t cols = (mesh.cols() + kClusterSide - 1) / kClusterSide;
  num_clusters = static_cast<std::size_t>(rows) * cols;
  std::vector<std::size_t> cluster_of(mesh.num_tiles());
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    const TileCoord c = mesh.coord_of(t);
    cluster_of[t] = static_cast<std::size_t>(
        std::min(c.row / kClusterSide, rows - 1) * cols +
        std::min(c.col / kClusterSide, cols - 1));
  }
  return cluster_of;
}

}  // namespace

Mapping ClusterSaMapper::map(const ObmProblem& problem) {
  const std::size_t n = problem.num_threads();
  Rng rng(params_.seed);

  Mapping initial;
  initial.thread_to_tile.resize(n);
  {
    const auto perm = random_permutation(n, rng);
    for (std::size_t j = 0; j < n; ++j) {
      initial.thread_to_tile[j] = static_cast<TileId>(perm[j]);
    }
  }
  const ThreadCostCache cache(problem.workload(), problem.model());
  MappingEvaluator eval(problem, std::move(initial), cache);

  Mapping best = eval.mapping();
  double best_obj = eval.objective();

  const auto [t0, t_end] = cooling_schedule(eval.max_apl());

  // ---- Phase 1: cluster-granularity annealing. Swapping two equal-size
  // clusters means swapping the tiles of their resident threads pairwise.
  std::size_t num_clusters = 0;
  const std::vector<std::size_t> cluster_of =
      build_clusters(problem.mesh(), num_clusters);
  std::vector<std::vector<TileId>> cluster_tiles(num_clusters);
  for (TileId t = 0; t < problem.num_tiles(); ++t) {
    cluster_tiles[cluster_of[t]].push_back(t);
  }

  auto swap_clusters = [&](std::size_t a, std::size_t b) {
    // Only equal-population clusters swap cleanly (ragged edges skip).
    if (cluster_tiles[a].size() != cluster_tiles[b].size()) return false;
    for (std::size_t i = 0; i < cluster_tiles[a].size(); ++i) {
      eval.swap_threads(eval.thread_on(cluster_tiles[a][i]),
                        eval.thread_on(cluster_tiles[b][i]));
    }
    return true;
  };

  if (params_.coarse_iterations > 0 && num_clusters >= 2) {
    double current = eval.objective();
    double temp = t0;
    const double alpha = std::pow(
        t_end / t0, 1.0 / static_cast<double>(params_.coarse_iterations));
    for (std::size_t it = 0; it < params_.coarse_iterations;
         ++it, temp *= alpha) {
      const auto a = static_cast<std::size_t>(rng.uniform_u32(
          static_cast<std::uint32_t>(num_clusters)));
      const auto b = static_cast<std::size_t>(rng.uniform_u32(
          static_cast<std::uint32_t>(num_clusters)));
      if (a == b) continue;
      if (!swap_clusters(a, b)) continue;
      const double candidate = eval.objective();
      const double delta = candidate - current;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
        current = candidate;
        if (current < best_obj) {
          best_obj = current;
          best = eval.mapping();
        }
      } else {
        swap_clusters(a, b);  // revert (same pairwise swaps undo it)
      }
    }
  }

  // ---- Phase 2: thread-level refinement.
  if (params_.fine_iterations > 0) {
    double current = eval.objective();
    double temp = t0 * 0.2;  // refinement starts cooler
    const double alpha = std::pow(
        t_end / temp, 1.0 / static_cast<double>(params_.fine_iterations));
    for (std::size_t it = 0; it < params_.fine_iterations;
         ++it, temp *= alpha) {
      const auto j1 = static_cast<std::size_t>(
          rng.uniform_u32(static_cast<std::uint32_t>(n)));
      const auto j2 = static_cast<std::size_t>(
          rng.uniform_u32(static_cast<std::uint32_t>(n)));
      if (j1 == j2) continue;
      eval.swap_threads(j1, j2);
      const double candidate = eval.objective();
      const double delta = candidate - current;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
        current = candidate;
        if (current < best_obj) {
          best_obj = current;
          best = eval.mapping();
        }
      } else {
        eval.swap_threads(j1, j2);
      }
    }
  }

  return best;
}

}  // namespace nocmap
