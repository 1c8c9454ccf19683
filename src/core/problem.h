// The On-chip-latency Balanced Mapping (OBM) problem instance and the
// thread-to-tile mapping type (paper Section III.B).
//
// An OBM instance bundles a chip (its TileLatencyModel: the {TC(k)} and
// {TM(k)} arrays) with a Workload whose total thread count equals the tile
// count. A Mapping is the permutation π with π(j) = k meaning global thread
// j runs on tile k.
#pragma once

#include <cstddef>
#include <vector>

#include "latency/model.h"
#include "workload/workload.h"

namespace nocmap {

/// Thread-to-tile permutation π(j) = k, both 0-based.
struct Mapping {
  std::vector<TileId> thread_to_tile;

  std::size_t size() const { return thread_to_tile.size(); }
  TileId tile_of(std::size_t thread) const { return thread_to_tile[thread]; }

  /// True iff this is a permutation of 0..n-1 for the given n.
  bool is_valid_permutation(std::size_t n) const;

  /// Inverse view: tile → thread. Requires a valid permutation.
  std::vector<std::size_t> tile_to_thread() const;
};

/// One OBM problem instance. Construction validates that the workload's
/// thread count equals the chip's tile count (callers with fewer threads
/// pad via Workload::padded_to, per paper footnote 1).
///
/// QoS extension: optional per-application service weights generalize the
/// objective to min max_i w_i·APL_i. The paper motivates balancing with
/// paying users in a shared environment (Section I); weights express
/// *differentiated* service — w_i > 1 buys application i a proportionally
/// lower latency target. With all weights 1 (the default) this is exactly
/// the paper's OBM.
class ObmProblem {
 public:
  ObmProblem(TileLatencyModel model, Workload workload);
  /// With explicit service weights (size must equal the application count;
  /// all weights must be positive).
  ObmProblem(TileLatencyModel model, Workload workload,
             std::vector<double> app_weights);

  const TileLatencyModel& model() const { return model_; }
  const Workload& workload() const { return workload_; }
  const Mesh& mesh() const { return model_.mesh(); }

  std::size_t num_tiles() const { return model_.mesh().num_tiles(); }
  std::size_t num_threads() const { return workload_.num_threads(); }
  std::size_t num_applications() const {
    return workload_.num_applications();
  }

  /// Service weight of application i (1.0 unless set at construction).
  double app_weight(std::size_t i) const;

  /// Identity mapping (thread j on tile j), handy as a starting point.
  Mapping identity_mapping() const;

 private:
  TileLatencyModel model_;
  Workload workload_;
  std::vector<double> app_weights_;
};

}  // namespace nocmap
