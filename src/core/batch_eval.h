// The OBM objective scorer: one per-application table, two folds, and the
// batched candidate kernel (ROADMAP item 2).
//
// Every mapper ranks mappings by the same reduction: per application, sum
// the eq.-13 costs of its threads' tiles in thread order (the application's
// cost numerator), divide by its mapping-independent traffic volume V_i, and
// take the max over applications — weighted, w_i·Σcost/V_i, for the
// objective (eq. 6 under QoS weights), unweighted for the max-APL that the
// annealers scale their temperature by. BatchEvaluator owns that
// reduction's per-application table (thread range, weight, thread-ascending
// volume, and each thread's slot in it) and both folds from numerators, so
// MappingEvaluator, the GA's tracked numerators, the SA chain and the exact
// solver all read one table instead of building their own. Applications
// with zero volume (pad threads, idle applications) have no table entry:
// they never contribute to either fold.
//
// Scored one candidate at a time the reduction is latency-bound: each +=
// waits ~4 cycles on the previous one, and the cost row pointer chases the
// candidate's tiles. score_rows() restructures the pass: for K candidate
// mappings stored candidate-major (the GA's genome pool, MC's shuffled
// rows), it makes ONE pass over the padded cost rows (thread-outer,
// candidate-inner) with K independent accumulators. The inner loop is a
// gather-and-add with no cross-iteration dependence, which the core
// overlaps.
//
// Bit-identity contract: for every lane b, score_rows() performs the
// floating-point operations of objective() on the lane's canonical
// numerators (numerator() of every slot) in the identical order, so the
// batched and scalar scores are the same double. evaluate() (core/metrics.h)
// recomputes the objective from the raw model and is the reference: the
// `batch_eval` fuzz oracle and tests/test_evaluator_batch.cpp hold every
// lane to exact equality with it on unweighted problems. Volumes are summed
// thread-ascending, as evaluate() does (the cache's prefix sums round
// differently).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cost_cache.h"
#include "core/problem.h"

namespace nocmap {

/// Owning storage for a batch of candidate mappings, one thread→tile
/// permutation per lane, stored candidate-major as score_rows() reads them.
/// Candidates enter through load().
class CandidateBatch {
 public:
  CandidateBatch(std::size_t num_threads, std::size_t capacity)
      : num_threads_(num_threads), capacity_(capacity),
        tiles_(num_threads * capacity) {}

  std::size_t num_threads() const { return num_threads_; }
  std::size_t capacity() const { return capacity_; }

  /// Lane b's permutation starts at rows() + b·num_threads().
  const TileId* rows() const { return tiles_.data(); }

  /// Copies a permutation into lane b.
  void load(std::size_t lane, std::span<const TileId> perm);

 private:
  std::size_t num_threads_;
  std::size_t capacity_;
  std::vector<TileId> tiles_;  // [lane][thread]
};

class BatchEvaluator {
 public:
  /// Lanes scored per internal pass; score()/score_rows() accept any count
  /// and loop over sub-blocks of this width on the stack.
  static constexpr std::size_t kMaxLanes = 128;

  /// One application with traffic, in application order.
  struct App {
    std::uint32_t first = 0;  // global thread range [first, last)
    std::uint32_t last = 0;
    double weight = 1.0;
    double volume = 0.0;  // Σ rate, summed thread-ascending; always > 0
  };

  /// Problem and cache are kept by reference and must outlive the
  /// evaluator. The evaluator is immutable after construction, so any
  /// number of workers may score through it concurrently.
  BatchEvaluator(const ObmProblem& problem, const ThreadCostCache& cache);

  std::span<const App> apps() const { return apps_; }

  /// Per global thread, the index into apps() of its application, or
  /// apps().size() for threads of zero-volume applications. Callers that
  /// track numerators per slot keep one spare entry at apps().size(), so a
  /// thread's update needs no branch; the folds never read it.
  std::span<const std::uint32_t> slots() const { return slot_of_; }

  /// Canonical cost numerator of apps()[slot] under the thread→tile
  /// permutation `perm`: its threads' costs added thread-ascending.
  double numerator(std::size_t slot, const TileId* perm) const;

  /// The OBM objective max_s w_s·num[s]/V_s from per-slot cost numerators
  /// (num holds at least apps().size() entries).
  double objective(std::span<const double> num) const;
  /// The unweighted max-APL max_s num[s]/V_s.
  double max_apl(std::span<const double> num) const;

  /// Scores lanes [0, count) of the batch through score_rows().
  void score(const CandidateBatch& batch, std::size_t count,
             std::span<double> out) const;

  /// Scores `count` candidate-major permutations stored in consecutive
  /// rows: candidate b's tile for thread j is rows[b·stride + j]. out[b] is
  /// bit-identical to objective() of candidate b's canonical numerators.
  void score_rows(const TileId* rows, std::size_t stride, std::size_t count,
                  std::span<double> out) const;

  std::size_t num_threads() const { return slot_of_.size(); }

 private:
  void score_block(const TileId* rows, std::size_t stride, std::size_t lanes,
                   double* out) const;

  const ThreadCostCache* cache_;
  std::vector<App> apps_;  // only applications with volume > 0
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace nocmap
