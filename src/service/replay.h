// Deterministic trace replay over a MappingService: the shared driver
// behind the nocmap_service_replay tool, bench/micro_service, the service
// determinism tests, and the service_replay fuzz oracle.
//
// Besides running the event stream, the replayer folds every decision into
// a 64-bit digest (splitmix64 chaining over all decision fields plus the
// final placement), which is how "bit-identical at 1/2/8 workers" is
// asserted without storing full decision streams. It also records every
// decision's wall time into one Histogram (util/stats.h), the only source of
// the service's decision-latency percentiles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "service/events.h"
#include "service/mapping_service.h"
#include "util/stats.h"

namespace nocmap::service {

struct ReplayOptions {
  /// Every N accepted events (0 = never), solve the snapshot problem from
  /// scratch with serial SSS and record objective / fresh-objective; the
  /// mean of those ratios is the incremental-quality headline metric.
  std::size_t objective_sample_period = 0;
};

struct ReplayStats {
  std::size_t events = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t fallbacks = 0;
  std::size_t degraded = 0;
  std::uint64_t moved_threads = 0;
  /// splitmix64-chained digest of every decision plus the final placement.
  std::uint64_t digest = 0;
  double wall_ms = 0.0;
  /// Wall time of every decision in integer nanoseconds; its percentile()
  /// is the service's decision-latency p50/p99.
  Histogram decision_ns;
  /// Mean of sampled objective / from-scratch-SSS-objective ratios (1.0
  /// when never sampled); >= 1 means the incremental path is that factor
  /// away from a fresh solve.
  double mean_objective_ratio = 1.0;
  std::size_t objective_samples = 0;
  /// The decision stream itself (always recorded; traces are event-scale,
  /// not flit-scale, so this stays small relative to the work done).
  std::vector<Decision> decisions;
};

/// Feeds `events` through `service` in order and aggregates the outcome.
ReplayStats replay_trace(MappingService& service,
                         std::span<const Event> events,
                         const ReplayOptions& options = {});

}  // namespace nocmap::service
