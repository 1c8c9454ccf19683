// Live-mapping evaluator for the local searches.
//
// The sliding-window swap stage of sort-select-swap evaluates 24
// permutations per window over O(N²) windows, and cluster-based annealing
// evaluates one two-thread swap per iteration; recomputing eq. 5 from
// scratch each time would cost O(N) per evaluation. This evaluator keeps
// the live mapping, its inverse and one cost numerator per application, so
// a move costs O(N/A) — only the affected applications — and an objective
// query is O(A). Every weight, volume and fold comes from the shared
// per-application table of BatchEvaluator (core/batch_eval.h), so the
// values it reports are the batch scorer's.
//
// The evaluator owns a live mapping that always remains a valid permutation:
// mutations are expressed as swaps of two threads' tiles or as group
// re-assignments of a thread set onto the tile set it already occupies.
//
// State purity invariant: after any mutation, each affected application's
// numerator is recomputed from scratch in canonical (thread-ascending)
// order, never updated by adding a delta. The numerators are therefore a
// pure function of the current mapping — bit-identical no matter which
// sequence of mutations produced it (a delta-based update would leave
// (n + d) - d != n rounding residue that accumulates with history). Window
// scoring (score_group_candidates) re-sums the same way, which is what
// makes the parallel SSS sweep exact: every worker scores through this one
// const evaluator and sees exactly the state the serial sweep would see.
// See DESIGN.md, "Parallelism & determinism".
//
// Two shortcuts keep window scoring cheap without changing a result. A
// candidate's score is the max of the untouched applications' fixed terms
// and the touched ones' re-sums, so when the untouched terms alone already
// reach objective() no candidate can score below it: can_improve() reports
// that, and the SSS sweep skips such windows without scoring them. And
// every candidate adds the same costs to a touched application's sum until
// the first group thread, so that prefix is summed once and shared by all
// lanes; the lanes then continue in thread order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/batch_eval.h"

namespace nocmap {

class MappingEvaluator {
 public:
  /// Takes the problem, an initial valid mapping, and the problem's eq.-13
  /// cost table. The problem and the cache are kept by reference and must
  /// outlive the evaluator; the cache is read-only here, so any number of
  /// evaluators can share it concurrently.
  MappingEvaluator(const ObmProblem& problem, Mapping initial,
                   const ThreadCostCache& cache);

  const Mapping& mapping() const { return mapping_; }
  /// Thread currently running on `tile`.
  std::size_t thread_on(TileId tile) const { return tile_to_thread_[tile]; }

  /// The OBM objective max_i w_i·APL_i of the live mapping; equals
  /// max_apl() when the problem is unweighted. Algorithms minimize this.
  double objective() const { return table_.objective(numerator_); }
  /// Max APL over applications with non-zero traffic.
  double max_apl() const { return table_.max_apl(numerator_); }

  /// Swaps the tiles of threads j1 and j2 (j1 == j2 is a no-op).
  void swap_threads(std::size_t j1, std::size_t j2);

  /// Re-assigns `threads[idx]` to `tiles[idx]` for all idx. The tile set
  /// must equal the set of tiles currently occupied by `threads` (i.e. this
  /// is a permutation within the group), which keeps the mapping valid.
  void apply_group(std::span<const std::size_t> threads,
                   std::span<const TileId> tiles);

  /// Largest thread group can_improve() and score_group_candidates() take
  /// (the SSS window limit); their scratch lives on the stack.
  static constexpr std::size_t kMaxGroup = 8;

  /// False when the applications with no thread in `threads` already
  /// attain objective(): every re-assignment of the group then scores >=
  /// objective(), so none passes a strict-improvement test. True promises
  /// nothing. `threads` must be distinct and at most kMaxGroup long.
  bool can_improve(std::span<const std::size_t> threads) const;

  /// Scores `count` candidate re-assignments of one thread group without
  /// mutating the evaluator. All candidates share the thread set: candidate
  /// b re-assigns threads[x] to tiles[x·count + b] (transposed, one
  /// contiguous row of candidate tiles per group position). out[b] is
  /// bit-identical to the objective() this evaluator would report after
  /// apply_group(threads, candidate b): each affected application's
  /// numerator is re-summed in the canonical thread-ascending order with
  /// the candidate's tiles substituted — never by delta arithmetic — and
  /// folded with the untouched applications' stored numerators. Being const, any number of workers may score
  /// windows through one shared evaluator concurrently. `threads` must be
  /// distinct and at most kMaxGroup long.
  void score_group_candidates(std::span<const std::size_t> threads,
                              const TileId* tiles, std::size_t count,
                              std::span<double> out) const;

 private:
  /// One group thread and its index in the caller's `threads` span.
  struct Member {
    std::size_t thread;
    std::size_t pos;
  };
  /// Fills group[0, threads.size()) with `threads` sorted by thread;
  /// throws on a group longer than kMaxGroup.
  void sort_group(std::span<const std::size_t> threads, Member* group) const;
  /// objective()'s fold over the slots holding no thread of the sorted
  /// group — the term every candidate of the group shares.
  double untouched_objective(const Member* group, std::size_t size) const;

  /// Updates position state only; callers must recompute afterwards.
  void place_thread(std::size_t j, TileId tile);
  /// Rebuilds one table slot's numerator from the live mapping in
  /// canonical thread order (the purity invariant above); the spare slot
  /// of zero-volume applications has no numerator and is skipped.
  void recompute(std::size_t slot);

  BatchEvaluator table_;
  const ThreadCostCache* cache_;  // not owned
  Mapping mapping_;
  std::vector<std::size_t> tile_to_thread_;
  std::vector<double> numerator_;     // per table slot: Σ cost(j, π(j))
  std::vector<std::size_t> touched_;  // apply_group scratch
};

}  // namespace nocmap
