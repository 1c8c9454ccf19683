// Contention-aware analytic network model.
//
// The paper's latency model treats the per-hop queuing delay td_q as a
// small constant, justified empirically (0..1 cycles at its loads). This
// module derives the queuing from first principles for a *given mapping*:
// it accumulates per-link flit rates by walking every traffic flow's
// dimension-order (XYZ) path (cache requests fan out uniformly to all
// banks, replies return, memory requests follow the problem's
// MemoryTrafficMode — nearest MC, round-robin over all MCs, or the
// dimension-order multicast tree whose shared prefixes carry each request
// once), then estimates per-link waiting with an M/D/1 approximation (unit
// service: one flit per cycle per link):
//
//     W(u) = u / (2·(1 − u))   cycles of queueing per flit
//
// Uses: predicting the saturation injection scale (1 / max link
// utilization), a mapping-dependent td_q estimate to refine the latency
// model, and hotspot analysis (does balancing APLs also balance links?).
#pragma once

#include <span>
#include <vector>

#include "core/problem.h"

namespace nocmap {

class ContentionModel {
 public:
  /// Requests are kShortPacketFlits and replies kLongPacketFlits long
  /// (latency/model.h); `injection_scale` multiplies the workload rates.
  ContentionModel(const ObmProblem& problem, const Mapping& mapping,
                  double injection_scale = 1.0);

  /// Flits/cycle on the directed link from `from` to its neighbour `to`
  /// (must be mesh-adjacent). Capacity is 1 flit/cycle, so a link's load
  /// is its utilization.
  double link_load(TileId from, TileId to) const;

  double max_utilization() const;
  /// Mean utilization over all directed links (including idle ones).
  double mean_utilization() const;

  /// Injection scale at which the hottest link reaches capacity — the
  /// predicted saturation knee of the latency-vs-load curve.
  double saturation_scale() const;

  /// M/D/1 waiting time on one link (cycles per flit); clamped just below
  /// capacity to stay finite.
  static double queue_delay(double utilization);

  /// Flit-weighted average per-hop queuing — the model's td_q estimate,
  /// comparable with ActivityCounters::avg_queue_wait().
  double predicted_td_q() const;

  /// Total flit·hops per cycle (conservation checks: equals the sum of all
  /// link loads).
  double total_flit_hops() const;

 private:
  std::size_t link_index(TileId from, TileId to) const;
  void add_flow(TileId src, TileId dst, double flits_per_cycle);
  void add_multicast_tree(TileId from, std::span<const TileId> dests,
                          double flits_per_cycle);

  const Mesh* mesh_;
  std::vector<double> load_;  // 6 directed link slots per tile
};

}  // namespace nocmap
