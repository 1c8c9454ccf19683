// Deterministic parallel execution for the mapping algorithms.
//
// Every parallel path in the mappers follows the same discipline so results
// are bit-identical at any thread count:
//
//   1. *Fixed work geometry.* The decomposition into independent units
//      (Monte-Carlo shards, SA restarts, GA fitness slots, SSS window
//      rounds) depends only on the problem and the algorithm parameters —
//      never on the thread count. Threads only change which worker executes
//      a unit.
//   2. *Pure units, slotted results.* Each unit reads shared state that is
//      frozen for the duration of the fan-out and writes only to its own
//      pre-allocated result slot. Randomized units draw from their own
//      forked RNG stream (Rng::fork / fork_streams).
//   3. *Canonical merges.* Results are combined serially in slot order with
//      deterministic tie-breaking (lowest index wins).
//
// ParallelConfig is the knob threaded through every mapper's options and the
// bench layer; ParallelTrialRunner is the execution engine the mappers, the
// benches' scenario fan-outs and the sweep runner share. It runs on the same
// CycleWorkerTeam (util/cycle_barrier.h) that steps the partitioned netsim,
// at every width: one worker is a one-worker team, which spawns no thread,
// so a one-worker run takes the multi-worker code path.
//
// Threads start only on request: a default ParallelConfig is one worker, so
// every default-constructed mapper and service runs inline. A program reads
// the cores it may use in one place (ParallelConfig::from_env, or the sweep
// tool's --threads) and passes that count to the fan-out it wants widened.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>

#include "util/cycle_barrier.h"

namespace nocmap {

/// Parallelism policy for a mapper: a worker count. Every algorithm follows
/// its canonical protocol at any count, so the mapping is bit-identical to
/// the 1-thread run.
struct ParallelConfig {
  /// Worker count: 1 (the default) runs everything inline on the calling
  /// thread, 0 means std::thread::hardware_concurrency().
  std::size_t num_threads = 1;

  /// The concrete worker count (resolves 0 to the hardware concurrency).
  std::size_t resolved_threads() const;

  static ParallelConfig serial_config() { return {1}; }
  /// The worker count named by the NOCMAP_THREADS environment variable
  /// (parse_thread_count): the policy every bench and tool fan-out honours.
  static ParallelConfig from_env();
};

/// Largest worker count accepted from outside the program (NOCMAP_THREADS
/// and the tools' worker options), so a typo cannot ask the OS for millions
/// of threads. Above every count a test, bench or CI leg uses (the largest
/// is 64 netsim workers); 0 still resolves to all hardware threads.
inline constexpr std::size_t kMaxWorkers = 256;

/// Parses a worker-count option: a whole number in [0, kMaxWorkers].
/// Anything else throws Error naming `what`, the option the text came from.
std::size_t parse_worker_count(std::string_view text, std::string_view what);

/// Parses a NOCMAP_THREADS value. A whole number up to kMaxWorkers is the
/// worker count; null, empty, negative, non-numeric or larger text yields 0
/// (all hardware threads), never a wrapped or partly parsed count.
std::size_t parse_thread_count(const char* text);

/// Runs batches of independent work units for a mapper on an owned
/// CycleWorkerTeam of the config's width: every worker, the caller
/// included, takes unit indices from one shared counter until the batch is
/// drained (a one-worker team is the caller alone, so it runs inline). The
/// unit body must be pure up to its own result slot (discipline above);
/// under that contract for_each is deterministic by construction.
///
/// Not re-entrant: no runner may be shared across threads, and no unit may
/// call back into the runner that is running it (CycleWorkerTeam::run is
/// not re-entrant). A unit may build and use a runner of its own.
class ParallelTrialRunner {
 public:
  explicit ParallelTrialRunner(const ParallelConfig& config)
      : team_(config.resolved_threads()) {}

  std::size_t num_threads() const { return team_.size(); }

  /// Runs body(i) once for each i in [0, count) and blocks until all
  /// complete. Batches of fewer than two units run on the caller at any
  /// width: there is nothing to overlap, and the result is identical
  /// either way. Units in this codebase are chunky (trial shards,
  /// SA chains, Hungarian solves, window rounds), so any batch of two or
  /// more is worth dispatching. If units throw, every other unit still
  /// runs, and the first exception caught is rethrown on the caller once
  /// the batch has finished; the runner stays usable.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& body);

  /// Runs body(lo, hi) over consecutive half-open ranges of [0, count)
  /// of width `batch_size` (the final range ragged), one range per work
  /// unit. The range geometry depends only on (count, batch_size) — never
  /// the worker count — so a batched fan-out (e.g. the GA scoring a
  /// population through the batch evaluator in lane blocks) keeps the
  /// fixed-work-geometry discipline: per-slot results are identical at any
  /// thread count.
  void for_each_batch(std::size_t count, std::size_t batch_size,
                      const std::function<void(std::size_t, std::size_t)>& body);

  /// Canonical merge: index of the smallest score, ties to the lowest
  /// index. Empty input returns npos.
  static std::size_t argmin(std::span<const double> scores);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  CycleWorkerTeam team_;
};

}  // namespace nocmap
