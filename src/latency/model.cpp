#include "latency/model.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace nocmap {

namespace {

/// Largest accepted td_q / td_s. Eq. 2 sums a delay per hop and eq. 13
/// weighs the sums by rates, so a delay near the double range overflows to
/// +inf far from this check; 10^9 cycles is also the sweep spec's count
/// bound.
constexpr double kMaxDelayCycles = 1e9;

/// td_q and td_s come from outside the program (nocmap_cli's --td_q/--td_s).
void require_delay(double cycles, const char* name) {
  NOCMAP_REQUIRE(cycles >= 0.0 && cycles <= kMaxDelayCycles,
                 std::string(name) + " must be in [0, 1e9] cycles");
}

}  // namespace

const char* memory_traffic_mode_name(MemoryTrafficMode mode) {
  switch (mode) {
    case MemoryTrafficMode::kProximity: return "proximity";
    case MemoryTrafficMode::kInterleaved: return "interleaved";
    case MemoryTrafficMode::kMulticast: return "multicast";
  }
  return "proximity";
}

bool memory_traffic_mode_from_name(const std::string& name,
                                   MemoryTrafficMode& out) {
  if (name == "proximity") out = MemoryTrafficMode::kProximity;
  else if (name == "interleaved") out = MemoryTrafficMode::kInterleaved;
  else if (name == "multicast") out = MemoryTrafficMode::kMulticast;
  else return false;
  return true;
}

TileLatencyModel::TileLatencyModel(const Mesh& mesh,
                                   const LatencyParams& params,
                                   MemoryTrafficMode mode)
    : mesh_(mesh), params_(params), mode_(mode) {
  require_delay(params_.td_q, "td_q");
  require_delay(params_.td_s, "td_s");
  const std::size_t n = mesh_.num_tiles();
  hc_.resize(n);
  hm_.resize(n);
  tc_.resize(n);
  tm_.resize(n);

  const double per_hop = params_.per_hop();
  const double off_tile_probability =
      static_cast<double>(n - 1) / static_cast<double>(n);
  const auto mcs = mesh_.mc_tiles();

  for (TileId k = 0; k < n; ++k) {
    hc_[k] = mesh_.avg_weighted_hops_to_all(k);
    // Cache: destination bank is uniform over all N tiles; serialization is
    // paid only when the bank is a different tile.
    tc_[k] = hc_[k] * per_hop + params_.td_s * off_tile_probability;

    switch (mode_) {
      case MemoryTrafficMode::kProximity:
        // Destination MC is deterministic; serialization unless this tile
        // hosts the MC itself.
        hm_[k] = mesh_.weighted_hops_to_nearest_mc(k);
        tm_[k] = hm_[k] * per_hop + (mesh_.is_mc(k) ? 0.0 : params_.td_s);
        break;
      case MemoryTrafficMode::kInterleaved: {
        // Round-robin over MCs converges to the uniform average; each
        // off-tile request pays serialization.
        double dist_sum = 0.0;
        double ser_sum = 0.0;
        for (TileId mc : mcs) {
          dist_sum += mesh_.weighted_hops(k, mc);
          if (mc != k) ser_sum += params_.td_s;
        }
        const auto m = static_cast<double>(mcs.size());
        hm_[k] = dist_sum / m;
        tm_[k] = hm_[k] * per_hop + ser_sum / m;
        break;
      }
      case MemoryTrafficMode::kMulticast: {
        // The request completes when the last replica reaches the farthest
        // MC; per-hop delays on the shared tree prefix overlap, so the
        // critical path is the longest branch.
        double dist_max = 0.0;
        for (TileId mc : mcs) {
          dist_max = std::max(dist_max, mesh_.weighted_hops(k, mc));
        }
        hm_[k] = dist_max;
        tm_[k] = dist_max * per_hop + (dist_max > 0.0 ? params_.td_s : 0.0);
        break;
      }
    }
  }
}

double packet_latency(const Mesh& mesh, const LatencyParams& params,
                      TileId src, TileId dst) {
  if (src == dst) return 0.0;
  return mesh.weighted_hops(src, dst) * params.per_hop() + params.td_s;
}

}  // namespace nocmap
