#include "netsim/router.h"

#include <bit>

namespace nocmap {

/// Seed of the per-router arbiter streams of the distance-weighted policy.
constexpr std::uint64_t kArbitrationSeed = 1;

PortDir opposite(PortDir d) {
  switch (d) {
    case PortDir::kNorth: return PortDir::kSouth;
    case PortDir::kEast: return PortDir::kWest;
    case PortDir::kSouth: return PortDir::kNorth;
    case PortDir::kWest: return PortDir::kEast;
    case PortDir::kLocal: return PortDir::kLocal;
    case PortDir::kUp: return PortDir::kDown;
    case PortDir::kDown: return PortDir::kUp;
  }
  return PortDir::kLocal;
}

RouterEngine::RouterEngine(const Mesh& mesh, const NetworkConfig& config,
                           std::size_t num_routers, TileId first_tile)
    : mesh_(&mesh),
      config_(config),
      num_routers_(num_routers),
      vcs_(config.vcs_per_port),
      depth_(config.buffer_depth),
      vc_slots_(kNumPorts * config.vcs_per_port) {
  NOCMAP_REQUIRE(config_.vcs_per_port >= 1, "need at least one VC");
  NOCMAP_REQUIRE(kNumPorts * config_.vcs_per_port <= 64,
                 "arbitration candidate buffer supports <= 64 VC slots");
  NOCMAP_REQUIRE(config_.buffer_depth >= 1, "need at least one buffer slot");
  NOCMAP_REQUIRE(num_routers >= 1, "engine needs at least one router");

  const std::size_t total_vcs = num_routers * vc_slots_;
  pool_.resize(total_vcs * depth_);
  fifo_head_.assign(total_vcs, 0);
  fifo_size_.assign(total_vcs, 0);
  route_valid_.assign(total_vcs, 0);
  out_port_.assign(total_vcs, 0);
  out_vc_valid_.assign(total_vcs, 0);
  out_vc_.assign(total_vcs, 0);
  out_allocated_.assign(total_vcs, 0);
  // Downstream input buffers start empty: full credit everywhere.
  out_credits_.assign(total_vcs, depth_);
  rr_pointer_.assign(num_routers * kNumPorts, 0);
  nonempty_mask_.assign(num_routers, 0);
  buffered_.assign(num_routers, 0);
  activity_.assign(num_routers, ActivityCounters{});
  active_words_.assign((num_routers + 63) / 64, 0);

  arbiter_rng_.reserve(num_routers);
  coord_.reserve(num_routers);
  for (std::size_t r = 0; r < num_routers; ++r) {
    const auto tile = static_cast<TileId>(first_tile + r);
    arbiter_rng_.emplace_back(
        splitmix64(kArbitrationSeed) ^
        splitmix64(static_cast<std::uint64_t>(tile) + 1));
    coord_.push_back(mesh.coord_of(tile));
  }
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    port_slot_mask_[p] = ((1ull << vcs_) - 1) << (p * vcs_);
  }
}

bool RouterEngine::can_accept(std::size_t router, PortDir port,
                              std::uint32_t vc) const {
  return fifo_size_[vc_index(router, port_index(port), vc)] < depth_;
}

void RouterEngine::receive_flit(std::size_t router, PortDir port,
                                std::uint32_t vc, const Flit& flit,
                                Cycle now) {
  const std::size_t slot = port_index(port) * vcs_ + vc;
  const std::size_t idx = router * vc_slots_ + slot;
  NOCMAP_REQUIRE(fifo_size_[idx] < depth_,
                 "input VC buffer overflow (credit protocol violated)");
  std::size_t tail = fifo_head_[idx] + fifo_size_[idx];
  if (tail >= depth_) tail -= depth_;
  Flit& stored = pool_[idx * depth_ + tail];
  stored = flit;
  stored.enqueued = now;
  ++fifo_size_[idx];
  nonempty_mask_[router] |= 1ull << slot;
  ++buffered_[router];
  ++activity_[router].buffer_writes;
  active_words_[router >> 6] |= 1ull << (router & 63);
}

void RouterEngine::receive_credit(std::size_t router, PortDir port,
                                  std::uint32_t vc) {
  const std::size_t idx = vc_index(router, port_index(port), vc);
  NOCMAP_REQUIRE(out_credits_[idx] < depth_,
                 "credit overflow (credit protocol violated)");
  ++out_credits_[idx];
}

PortDir RouterEngine::route(std::size_t router, TileId dst, bool yx) const {
  const TileCoord here = coord_[router];
  const TileCoord there = mesh_->coord_of(dst);
  if (yx) {
    // Y (rows) first, then X (columns), then Z (layers).
    if (there.row > here.row) return PortDir::kSouth;
    if (there.row < here.row) return PortDir::kNorth;
    if (there.col > here.col) return PortDir::kEast;
    if (there.col < here.col) return PortDir::kWest;
    if (there.layer > here.layer) return PortDir::kUp;
    if (there.layer < here.layer) return PortDir::kDown;
    return PortDir::kLocal;
  }
  // Dimension order: X (columns) first, then Y (rows), then Z (layers).
  // Resolving Z last keeps both sub-routes deadlock-free (strict dimension
  // order) and means planar traffic never touches the TSV ports.
  if (there.col > here.col) return PortDir::kEast;
  if (there.col < here.col) return PortDir::kWest;
  if (there.row > here.row) return PortDir::kSouth;
  if (there.row < here.row) return PortDir::kNorth;
  if (there.layer > here.layer) return PortDir::kUp;
  if (there.layer < here.layer) return PortDir::kDown;
  return PortDir::kLocal;
}

void RouterEngine::tick(std::size_t router, Cycle now,
                        std::vector<Departure>& out) {
  const std::uint32_t vcs = vcs_;
  const std::size_t base = router * vc_slots_;
  ActivityCounters& act = activity_[router];

  // --- Route computation + VC allocation for head flits at buffer heads,
  // fused with the switch-allocation request scan. Occupied slots are
  // visited in ascending (port, vc) order — identical to the nested loop a
  // dense implementation would run — and a slot's SA request depends only
  // on its own state and untouched credit counters, so computing it right
  // after the slot's RC/VA step matches a separate full pass bit-for-bit.
  std::array<std::uint64_t, kNumPorts> requests{};
  std::uint64_t pending = nonempty_mask_[router];
  while (pending) {
    const auto slot = static_cast<std::size_t>(std::countr_zero(pending));
    pending &= pending - 1;
    const std::size_t idx = base + slot;
    const Flit& head = pool_[idx * depth_ + fifo_head_[idx]];
    if (head.is_head) {  // body/tail: route already held
      if (!route_valid_[idx]) {
        out_port_[idx] =
            static_cast<std::uint8_t>(route(router, head.dst, head.yx));
        route_valid_[idx] = 1;
      }
      if (!out_vc_valid_[idx]) {
        // Claim the lowest-index free downstream VC within the flit's
        // sub-route class (O1TURN partitions VCs; see NetworkConfig).
        std::uint32_t lo = 0;
        std::uint32_t hi = vcs;
        config_.vc_range(head.yx, lo, hi);
        const std::size_t obase = base + out_port_[idx] * vcs;
        for (std::uint32_t ov = lo; ov < hi; ++ov) {
          if (!out_allocated_[obase + ov]) {
            out_allocated_[obase + ov] = 1;
            out_vc_[idx] = static_cast<std::uint8_t>(ov);
            out_vc_valid_[idx] = 1;
            ++act.vc_allocations;
            break;
          }
        }
      }
    }
    if (route_valid_[idx] && out_vc_valid_[idx] &&
        head.enqueued + config_.router_pipeline <= now &&
        out_credits_[base + out_port_[idx] * vcs + out_vc_[idx]] > 0) {
      requests[out_port_[idx]] |= 1ull << slot;
    }
  }

  // --- Separable switch allocation: each output port grants one input VC,
  // each input port issues at most one flit.
  const std::size_t slots = vc_slots_;
  std::uint64_t busy_inputs = 0;  // VC slots of input ports already granted
  for (std::size_t op = 0; op < kNumPorts; ++op) {
    const std::uint64_t eligible = requests[op] & ~busy_inputs;
    if (eligible == 0) continue;
    std::uint32_t& rr = rr_pointer_[router * kNumPorts + op];

    std::size_t winner;
    if (config_.arbitration == Arbitration::kRoundRobin) {
      // First eligible slot at or after the round-robin pointer, wrapping.
      const std::uint64_t ahead = eligible & (~0ull << rr);
      winner = static_cast<std::size_t>(
          std::countr_zero(ahead != 0 ? ahead : eligible));
    } else {
      // Distance-weighted (PDBA-lite): sample among the eligible
      // candidates with probability proportional to 1 + hops travelled,
      // equalizing service between short- and long-haul packets.
      double total_weight = 0.0;
      std::array<std::size_t, 64> candidates{};  // kNumPorts * vcs <= 64
      std::array<double, 64> weights{};
      std::size_t count = 0;
      std::uint64_t scan = eligible;
      while (scan) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(scan));
        scan &= scan - 1;
        const std::size_t idx = base + slot;
        const double w =
            1.0 + static_cast<double>(
                      pool_[idx * depth_ + fifo_head_[idx]].hops);
        candidates[count] = slot;
        weights[count] = w;
        total_weight += w;
        ++count;
      }
      double pick = arbiter_rng_[router].uniform(0.0, total_weight);
      winner = candidates[count - 1];
      for (std::size_t c = 0; c < count; ++c) {
        pick -= weights[c];
        if (pick <= 0.0) {
          winner = candidates[c];
          break;
        }
      }
    }

    const std::size_t idx = base + winner;
    const std::size_t ip = winner / vcs;
    const std::size_t ovidx = base + out_port_[idx] * vcs + out_vc_[idx];
    const Flit& flit = pool_[idx * depth_ + fifo_head_[idx]];

    // Grant: switch traversal.
    --out_credits_[ovidx];
    busy_inputs |= port_slot_mask_[ip];
    ++act.sw_arbitrations;
    ++act.buffer_reads;
    ++act.crossbar_traversals;
    act.queue_wait_cycles += now - (flit.enqueued + config_.router_pipeline);

    Departure dep;
    dep.out_port = static_cast<PortDir>(out_port_[idx]);
    dep.out_vc = out_vc_[idx];
    dep.in_port = static_cast<PortDir>(ip);
    dep.in_vc = static_cast<std::uint32_t>(winner % vcs);
    dep.flit = flit;

    // Pop the ring-buffer front.
    std::uint32_t head_next = fifo_head_[idx] + 1;
    if (head_next == depth_) head_next = 0;
    fifo_head_[idx] = head_next;
    if (--fifo_size_[idx] == 0) nonempty_mask_[router] &= ~(1ull << winner);
    --buffered_[router];

    if (dep.flit.is_tail) {
      out_allocated_[ovidx] = 0;
      route_valid_[idx] = 0;
      out_vc_valid_[idx] = 0;
    }
    out.push_back(dep);
    rr = static_cast<std::uint32_t>((winner + 1) % slots);
  }
}

void RouterEngine::reset_activity() {
  for (auto& a : activity_) a = ActivityCounters{};
}

}  // namespace nocmap
