#include "core/problem.h"

#include <numeric>

namespace nocmap {

bool Mapping::is_valid_permutation(std::size_t n) const {
  if (thread_to_tile.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (TileId t : thread_to_tile) {
    if (t >= n || seen[t]) return false;
    seen[t] = 1;
  }
  return true;
}

std::vector<std::size_t> Mapping::tile_to_thread() const {
  NOCMAP_REQUIRE(is_valid_permutation(thread_to_tile.size()),
                 "mapping is not a valid permutation");
  std::vector<std::size_t> inverse(thread_to_tile.size());
  for (std::size_t j = 0; j < thread_to_tile.size(); ++j) {
    inverse[thread_to_tile[j]] = j;
  }
  return inverse;
}

ObmProblem::ObmProblem(TileLatencyModel model, Workload workload)
    : ObmProblem(std::move(model), std::move(workload), {}) {}

ObmProblem::ObmProblem(TileLatencyModel model, Workload workload,
                       std::vector<double> app_weights)
    : model_(std::move(model)), workload_(std::move(workload)),
      app_weights_(std::move(app_weights)) {
  NOCMAP_REQUIRE(
      workload_.num_threads() == model_.mesh().num_tiles(),
      "workload thread count must equal tile count (pad with "
      "Workload::padded_to if needed)");
  if (app_weights_.empty()) {
    app_weights_.assign(workload_.num_applications(), 1.0);
  }
  NOCMAP_REQUIRE(app_weights_.size() == workload_.num_applications(),
                 "one service weight per application required");
  for (double w : app_weights_) {
    NOCMAP_REQUIRE(w > 0.0, "service weights must be positive");
  }
}

double ObmProblem::app_weight(std::size_t i) const {
  NOCMAP_REQUIRE(i < app_weights_.size(), "application index out of range");
  return app_weights_[i];
}

Mapping ObmProblem::identity_mapping() const {
  Mapping m;
  m.thread_to_tile.resize(num_threads());
  std::iota(m.thread_to_tile.begin(), m.thread_to_tile.end(), TileId{0});
  return m;
}

}  // namespace nocmap
