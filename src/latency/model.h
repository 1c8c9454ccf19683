// Analytic per-tile packet-latency model (paper Section II.C).
//
// A packet's service latency is
//     TD = H · (td_r + td_w + td_q) + td_s                       (eq. 2)
// where H is the XY-routing hop count, td_r/td_w are the per-hop router and
// wire delays, td_q is the average per-hop queuing delay (0–1 cycles at the
// loads studied), and td_s is the serialization latency (packet length /
// channel bandwidth). Serialization is skipped when source == destination
// (no network traversal). td_r and td_w are Table 2's router and link
// (kRouterCycles, kLinkCycles below), which the simulator reads too.
//
// Two per-tile latency arrays summarize the chip:
//   TC(k): expected latency of a cache packet originating at tile k. Cache
//          banks are address-hashed uniformly over all N tiles (eq. 3), so
//          TC(k) = HC_k · per_hop + td_s · (N-1)/N — the (N-1)/N factor is
//          the probability that the hashed bank is a *different* tile. This
//          factor is pinned by the paper's own Figure-5 arithmetic
//          (10.3375 / 11.5375 cycles), which our tests reproduce exactly.
//   TM(k): latency of a memory-controller request from tile k (eq. 4);
//          serialization applies unless the request stays on-tile. The
//          destination depends on the memory-traffic mode: the nearest MC
//          under proximity routing (the paper's rule, generalized to a
//          weighted-distance Voronoi partition over arbitrary MC sets), the
//          mean over all MCs under DRAM interleaving (round-robin converges
//          to the uniform average), or the farthest MC under multicast (the
//          request completes when the last replica arrives).
//
// On a 3D stacked mesh all hop counts are TSV-weighted (Mesh::weighted_hops),
// which reduces to the plain Manhattan distance on a 2D mesh.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/mesh.h"

namespace nocmap {

/// How memory requests pick their MC destination (Section II.C generalized).
enum class MemoryTrafficMode : std::uint8_t {
  kProximity,    ///< nearest MC by weighted distance (the paper's rule)
  kInterleaved,  ///< round-robin over all MCs (address-interleaved DRAM)
  kMulticast,    ///< one request replicated to every MC at branch routers
};

/// Mode name used by scenario repro files and sweep specs.
const char* memory_traffic_mode_name(MemoryTrafficMode mode);

/// Parses a mode name; returns false (and leaves `out` untouched) for an
/// unknown name.
bool memory_traffic_mode_from_name(const std::string& name,
                                   MemoryTrafficMode& out);

/// Table 2's per-hop delays in cycles: td_r (a 3-stage router) and td_w (one
/// link, planar or TSV). Eq. 2 and the simulator both read these.
inline constexpr std::uint32_t kRouterCycles = 3;
inline constexpr std::uint32_t kLinkCycles = 1;

/// The packet format (paper Section V.A): with 128-bit links a 16-bit short
/// packet (requests, coherence forwards) is 1 flit and a 64-byte-payload
/// long packet (data replies) is 5 flits. The simulator's traffic engine and
/// the contention model both read these.
inline constexpr std::uint32_t kShortPacketFlits = 1;
inline constexpr std::uint32_t kLongPacketFlits = 5;

/// The settable timing parameters of eq. 2, in cycles.
struct LatencyParams {
  double td_q = 0.3;  ///< average per-hop queuing delay (calibrated, §II.C)
  double td_s = 1.8;  ///< average serialization delay over the packet mix

  /// Combined per-hop delay td_r + td_w + td_q.
  double per_hop() const { return double{kRouterCycles} + kLinkCycles + td_q; }
};

/// Per-tile latency arrays for one chip: the {TC(k)} and {TM(k)} of the
/// problem statement (Section III.B). Immutable after construction.
class TileLatencyModel {
 public:
  /// Throws unless params.td_q and params.td_s are finite and >= 0.
  TileLatencyModel(const Mesh& mesh, const LatencyParams& params,
                   MemoryTrafficMode mode = MemoryTrafficMode::kProximity);

  const Mesh& mesh() const { return mesh_; }
  const LatencyParams& params() const { return params_; }
  MemoryTrafficMode mode() const { return mode_; }

  /// Expected cache-packet latency from tile k (cycles).
  double tc(TileId k) const { return tc_[k]; }
  /// Memory-request latency from tile k (cycles; destination per mode()).
  double tm(TileId k) const { return tm_[k]; }

  /// Average hop count HC_k of eq. 3 (exposed for Fig. 3 and validation;
  /// TSV-weighted on a stacked mesh).
  double hc(TileId k) const { return hc_[k]; }
  /// Memory hop count HM_k of eq. 4 generalized per mode(): nearest /
  /// mean / farthest weighted MC distance.
  double hm(TileId k) const { return hm_[k]; }

 private:
  Mesh mesh_;
  LatencyParams params_;
  MemoryTrafficMode mode_ = MemoryTrafficMode::kProximity;
  std::vector<double> hc_;
  std::vector<double> hm_;
  std::vector<double> tc_;
  std::vector<double> tm_;
};

/// Latency of one specific packet per eq. 2 (used by tests and the netsim
/// validation example to compare against measured values).
double packet_latency(const Mesh& mesh, const LatencyParams& params,
                      TileId src, TileId dst);

}  // namespace nocmap
