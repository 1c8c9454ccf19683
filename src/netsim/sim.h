// One-call simulation driver: run a mapping on the cycle-level network and
// measure what the paper measures — per-application average packet latency,
// global APL, and the activity counters that feed the power model.
//
// Protocol: a warmup window (activity and latency samples discarded), a
// measurement window, then a drain phase (no new requests; in-flight packets
// finish so measured packets are not censored). Per-router activity is
// snapshotted at the end of the measurement window, so drain traffic can
// never inflate the per-cycle load summary.
#pragma once

#include <vector>

#include "core/problem.h"
#include "netsim/traffic.h"
#include "util/stats.h"

namespace nocmap {

struct SimConfig {
  Cycle warmup_cycles = 5000;
  Cycle measure_cycles = 100000;
  /// Safety cap on the drain phase (should never bind at sane loads).
  Cycle max_drain_cycles = 200000;
  /// Workers stepping *this one simulation*: the mesh is spatially
  /// partitioned into min(sim_workers, rows) row-band domains advanced in
  /// parallel each cycle (DESIGN.md §16). Results are bit-identical at
  /// every value; 0 resolves to the hardware concurrency. Default 1 is one
  /// domain on a one-worker team, which spawns no thread. Orthogonal to
  /// across-scenario parallelism (a ParallelTrialRunner::for_each over
  /// run_simulation calls): use sim_workers for one large mesh, scenario
  /// workers for many scenarios.
  std::size_t sim_workers = 1;
  TrafficConfig traffic;
  NetworkConfig network;
};

/// Measurement-window load digest across routers and links — the netsim
/// counters surfaced through RunReports (docs/metrics-schema.md). All rates
/// are per measured cycle; utilizations are in [0, 1].
struct RouterLoadSummary {
  /// Max / mean over routers of crossbar traversals per cycle (a 5-port
  /// router can move up to 5 flits per cycle, so this is util·5).
  double max_crossbar_per_cycle = 0.0;
  double mean_crossbar_per_cycle = 0.0;
  /// Largest per-router average queuing delay (cycles per buffered flit
  /// beyond the pipeline minimum) — the hotspot counterpart of td_q.
  double max_avg_queue_wait = 0.0;
  /// Largest per-router input-buffer occupancy integral per cycle
  /// (queue_wait_cycles / measured_cycles): mean number of flits queued
  /// at the busiest router.
  double max_queue_occupancy = 0.0;
  /// Fraction of directed mesh links busy, averaged over the window:
  /// link_traversals / (Mesh::num_directed_links · measured_cycles).
  double link_utilization = 0.0;
};

struct SimResult {
  /// Per-application measured APL (cycles), index-aligned with the
  /// workload's applications. Zero-traffic applications report 0.
  std::vector<double> apl;
  double max_apl = 0.0;
  double dev_apl = 0.0;
  double g_apl = 0.0;

  /// Per-application packet count and mean latency.
  std::vector<RunningStats> per_app;
  /// All packets combined.
  RunningStats overall;
  /// Per packet class (indexed by PacketClass).
  std::vector<RunningStats> per_class;
  /// Per-application latency histograms in cycles (tail percentiles; no
  /// range, so saturated tails are never clamped). The QoS story (paper
  /// Section I) cares about worst-case experience, not just means.
  std::vector<Histogram> per_app_histogram;

  /// p-quantile (0..1) of application `app`'s packet latency.
  double app_percentile(std::size_t app, double p) const {
    return per_app_histogram.at(app).percentile(p);
  }

  /// Fabric activity during the measurement window (for DSENT-lite),
  /// snapshotted at the window's end before any drain traffic.
  ActivityCounters activity;
  /// Activity from the last reset (measurement start) through the end of
  /// the drain phase. With warmup_cycles == 0 this covers the whole run, so
  /// exact flit-conservation identities hold and are enforced by the check
  /// subsystem (DESIGN.md §10): every crossbar departure is either a link
  /// traversal or an ejection, and every buffered flit arrived either from
  /// the local NI or over a link:
  ///   crossbar_traversals == link_traversals + flits_ejected
  ///   buffer_writes       == flits_injected + link_traversals
  ActivityCounters activity_with_drain;
  /// Per-router / per-link load digest over the same window (computed from
  /// the measurement-window snapshot; unaffected by drain length).
  RouterLoadSummary load;
  /// Cycles actually simulated inside the measurement window (the divisor
  /// of every per-cycle rate above; 0 when the window is empty).
  Cycle measured_cycles = 0;

  std::uint64_t packets_measured = 0;
  std::uint64_t local_accesses = 0;
  /// Whole-run flit conservation endpoints (injection == ejection once the
  /// drain completes).
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  /// True if the drain phase hit its cap with packets still in flight.
  bool drain_incomplete = false;
};

/// Runs the full warmup/measure/drain protocol. Deterministic for a fixed
/// (problem, mapping, config).
SimResult run_simulation(const ObmProblem& problem, const Mapping& mapping,
                         const SimConfig& config);

}  // namespace nocmap
