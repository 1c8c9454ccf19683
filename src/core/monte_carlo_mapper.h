// Monte-Carlo baseline for OBM (paper Section V.A algorithm 2): draw a large
// number of uniform random mappings (the paper uses 10⁴) and keep the one
// with the smallest max-APL. Trials are sharded with a fixed geometry and
// per-shard forked RNG streams, so the result is deterministic for a fixed
// (seed, trials) pair at any thread count; the ParallelConfig (default: one
// worker, inline) only decides how many workers execute the shards.
#pragma once

#include <cstdint>

#include "core/mapper.h"
#include "core/parallel.h"

namespace nocmap {

class MonteCarloMapper final : public Mapper {
 public:
  explicit MonteCarloMapper(std::size_t trials = 10000,
                            std::uint64_t seed = 1,
                            ParallelConfig parallel = {})
      : trials_(trials), seed_(seed), parallel_(parallel) {}

  std::string name() const override { return "MC"; }
  Mapping map(const ObmProblem& problem) override;

  std::size_t trials() const { return trials_; }

 private:
  std::size_t trials_;
  std::uint64_t seed_;
  ParallelConfig parallel_;
};

}  // namespace nocmap
