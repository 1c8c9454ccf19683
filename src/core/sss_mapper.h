// The proposed sort-select-swap (SSS) algorithm (paper Section IV.B,
// Algorithm 2) — the paper's primary contribution.
//
//   1. *Sort* all tiles by their cache APL TC(k) ascending.
//   2. *Select* (coarse tuning): for each application with ΔN_i threads,
//      divide the remaining sorted tile list into ΔN_i equal sections, take
//      the middle tile of each section — so every application receives an
//      even spread of good and bad cache-latency tiles — then assign its
//      threads to those tiles optimally with the Hungarian-based SAM.
//   3. *Swap* (fine tuning): slide a 4-tile window over the sorted tile
//      list with step sizes s = 1 .. N/4 (window positions i, i+s, i+2s,
//      i+3s); for each window, try all 4! = 24 permutations of the threads
//      currently on those tiles and greedily keep the one minimizing
//      max-APL. This is where memory-controller traffic gets balanced
//      across applications.
//   4. Re-run SAM inside each application to repair any within-application
//      suboptimality introduced by the swaps.
//
// Overall O(N³), dominated by the Hungarian calls. Options expose each stage
// for the ablation bench.
#pragma once

#include "core/mapper.h"
#include "core/parallel.h"

namespace nocmap {

struct SssOptions {
  /// Stage 3 on/off (ablation: selection only).
  bool window_swaps = true;
  /// Stage 4 on/off (ablation: no final SAM repair).
  bool final_sam = true;
  /// Window size w; the paper uses 4 (w! permutations per window, so keep
  /// small). Must be in [2, 8].
  std::size_t window_size = 4;
  /// Largest window step; 0 means the paper's N/4.
  std::size_t max_step = 0;
  /// Worker count (default: one, inline). Every count runs the same code
  /// and produces the same mapping: stage 2/4 SAM solves fan out per
  /// application, and each stage-3 round gives every worker a slice of the
  /// upcoming windows, scored through the one shared const evaluator up to
  /// the slice's first improving window, and commits the lowest slice's
  /// hit (see DESIGN.md, "Parallelism & determinism").
  ParallelConfig parallel = {};
};

class SortSelectSwapMapper final : public Mapper {
 public:
  explicit SortSelectSwapMapper(SssOptions options = {})
      : options_(options) {}

  std::string name() const override { return "SSS"; }
  Mapping map(const ObmProblem& problem) override;

  const SssOptions& options() const { return options_; }

  /// The TC-ascending tile order used by stages 1–3 (exposed for tests).
  static std::vector<TileId> sorted_tiles(const TileLatencyModel& model);

 private:
  SssOptions options_;
};

}  // namespace nocmap
