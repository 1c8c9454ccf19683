// Cluster-based simulated annealing (paper reference [17], Lu/Xia/Jantsch
// DDECS'08) — the other general search baseline the paper's Section IV
// names alongside plain SA and genetic search.
//
// Two phases:
//   1. Coarse: partition the mesh into 2×2 tile clusters and anneal at
//     cluster granularity — a move swaps the thread groups of two clusters
//     wholesale. This explores the layout space in far fewer, larger steps
//     than thread-level SA.
//   2. Fine: standard thread-swap annealing from the coarse solution.
//
// Objective: the OBM max-APL (weighted when the problem has QoS weights),
// evaluated incrementally.
#pragma once

#include <cstdint>

#include "core/mapper.h"

namespace nocmap {

struct ClusterSaParams {
  std::size_t coarse_iterations = 2000;
  std::size_t fine_iterations = 20000;
  std::uint64_t seed = 1;
};

class ClusterSaMapper final : public Mapper {
 public:
  explicit ClusterSaMapper(ClusterSaParams params = {}) : params_(params) {}

  std::string name() const override { return "CSA"; }
  Mapping map(const ObmProblem& problem) override;

  const ClusterSaParams& params() const { return params_; }

 private:
  ClusterSaParams params_;
};

}  // namespace nocmap
