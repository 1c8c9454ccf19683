#include "netsim/router.h"

#include <bit>
#include <limits>

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
    : config_(config),
      first_tile_(first_tile),
      num_routers_(num_routers),
      vcs_(config.vcs_per_port),
      ports_(mesh.is_3d() ? kNumPorts : kPlanarPorts),
      vc_slots_(ports_ * config.vcs_per_port) {
  NOCMAP_REQUIRE(config_.vcs_per_port >= 1, "need at least one VC");
  NOCMAP_REQUIRE(kNumPorts * config_.vcs_per_port <= 64,
                 "arbitration candidate buffer supports <= 64 VC slots");
  NOCMAP_REQUIRE(mesh.rows() + mesh.cols() + mesh.layers() - 3 <=
                     std::numeric_limits<decltype(Flit::hops)>::max(),
                 "the mesh diameter must fit a flit's hop count");
  NOCMAP_REQUIRE(num_routers >= 1, "engine needs at least one router");

  const std::size_t total_vcs = num_routers * vc_slots_;
  pool_.resize(total_vcs * kBufferDepth);
  // Downstream input buffers start empty: full credit everywhere.
  VcState fresh;
  fresh.out_credits = static_cast<std::uint8_t>(kBufferDepth);
  vc_.assign(total_vcs, fresh);
  rr_pointer_.assign(num_routers * ports_, 0);
  nonempty_mask_.assign(num_routers, 0);
  activity_.assign(num_routers, ActivityCounters{});
  active_words_.assign((num_routers + 63) / 64, 0);

  arbiter_rng_.reserve(num_routers);
  for (std::size_t r = 0; r < num_routers; ++r) {
    const auto tile = static_cast<TileId>(first_tile + r);
    arbiter_rng_.emplace_back(
        splitmix64(kArbitrationSeed) ^
        splitmix64(static_cast<std::uint64_t>(tile) + 1));
  }
  coord_.reserve(mesh.num_tiles());
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    coord_.push_back(mesh.coord_of(t));
  }
  for (std::size_t slot = 0; slot < vc_slots_; ++slot) {
    slot_port_[slot] = static_cast<std::uint8_t>(slot / vcs_);
    slot_vc_[slot] = static_cast<std::uint8_t>(slot % vcs_);
  }
  for (std::size_t p = 0; p < ports_; ++p) {
    port_slot_mask_[p] = ((1ull << vcs_) - 1) << (p * vcs_);
  }
}

void RouterEngine::receive_flit(std::size_t router, PortDir port,
                                std::uint32_t vc, const Flit& flit,
                                Cycle now) {
  NOCMAP_ASSERT(port_index(port) < ports_);
  const std::size_t slot = port_index(port) * vcs_ + vc;
  const std::size_t idx = router * vc_slots_ + slot;
  VcState& state = vc_[idx];
  NOCMAP_REQUIRE(state.size < kBufferDepth,
                 "input VC buffer overflow (credit protocol violated)");
  std::size_t tail = state.head + state.size;
  if (tail >= kBufferDepth) tail -= kBufferDepth;
  Flit& stored = pool_[idx * kBufferDepth + tail];
  stored = flit;
  stored.enqueued = now;
  ++state.size;
  nonempty_mask_[router] |= 1ull << slot;
  ++activity_[router].buffer_writes;
  active_words_[router >> 6] |= 1ull << (router & 63);
}

void RouterEngine::receive_credit(std::size_t router, PortDir port,
                                  std::uint32_t vc) {
  NOCMAP_ASSERT(port_index(port) < ports_);
  VcState& state = vc_[vc_index(router, port_index(port), vc)];
  NOCMAP_REQUIRE(state.out_credits < kBufferDepth,
                 "credit overflow (credit protocol violated)");
  ++state.out_credits;
}

PortDir RouterEngine::route(std::size_t router, TileId dst, bool yx) const {
  const TileCoord& here = coord_[first_tile_ + router];
  const TileCoord& there = coord_[dst];
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
  VcState* const vc = &vc_[base];
  const Flit* const pool = &pool_[base * kBufferDepth];
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
    VcState& in = vc[slot];
    const Flit& head = pool[slot * kBufferDepth + in.head];
    if (head.is_head) {  // body/tail: route already held
      if (!in.route_valid) {
        in.out_port =
            static_cast<std::uint8_t>(route(router, head.dst, head.yx));
        in.route_valid = 1;
      }
      if (!in.out_vc_valid) {
        // Claim the lowest-index free downstream VC within the flit's
        // sub-route class (O1TURN partitions VCs; see NetworkConfig).
        std::uint32_t lo = 0;
        std::uint32_t hi = vcs;
        config_.vc_range(head.yx, lo, hi);
        VcState* const outs = vc + in.out_port * vcs;
        for (std::uint32_t ov = lo; ov < hi; ++ov) {
          if (!outs[ov].out_allocated) {
            outs[ov].out_allocated = 1;
            in.out_vc = static_cast<std::uint8_t>(ov);
            in.out_vc_valid = 1;
            ++act.vc_allocations;
            break;
          }
        }
      }
    }
    if (in.route_valid && in.out_vc_valid &&
        head.enqueued + kRouterCycles <= now &&
        vc[in.out_port * vcs + in.out_vc].out_credits > 0) {
      requests[in.out_port] |= 1ull << slot;
    }
  }

  // --- Separable switch allocation: each output port grants one input VC,
  // each input port issues at most one flit.
  std::uint64_t busy_inputs = 0;  // VC slots of input ports already granted
  for (std::size_t op = 0; op < ports_; ++op) {
    const std::uint64_t eligible = requests[op] & ~busy_inputs;
    if (eligible == 0) continue;
    std::uint8_t& rr = rr_pointer_[router * ports_ + op];

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
      std::array<std::size_t, 64> candidates{};  // ports * vcs <= 64
      std::array<double, 64> weights{};
      std::size_t count = 0;
      std::uint64_t scan = eligible;
      while (scan) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(scan));
        scan &= scan - 1;
        const double w =
            1.0 + static_cast<double>(
                      pool[slot * kBufferDepth + vc[slot].head].hops);
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

    VcState& in = vc[winner];
    const std::size_t ip = slot_port_[winner];
    VcState& ovc = vc[in.out_port * vcs + in.out_vc];
    const Flit& flit = pool[winner * kBufferDepth + in.head];

    // Grant: switch traversal.
    --ovc.out_credits;
    busy_inputs |= port_slot_mask_[ip];
    ++act.sw_arbitrations;
    ++act.buffer_reads;
    ++act.crossbar_traversals;
    act.queue_wait_cycles += now - (flit.enqueued + kRouterCycles);

    Departure dep;
    dep.out_port = static_cast<PortDir>(in.out_port);
    dep.out_vc = in.out_vc;
    dep.in_port = static_cast<PortDir>(ip);
    dep.in_vc = slot_vc_[winner];
    dep.flit = flit;

    // Pop the ring-buffer front.
    std::uint32_t head_next = in.head + 1u;
    if (head_next == kBufferDepth) head_next = 0;
    in.head = static_cast<std::uint8_t>(head_next);
    if (--in.size == 0) nonempty_mask_[router] &= ~(1ull << winner);

    if (dep.flit.is_tail) {
      ovc.out_allocated = 0;
      in.route_valid = 0;
      in.out_vc_valid = 0;
    }
    out.push_back(dep);
    rr = static_cast<std::uint8_t>(winner + 1 == vc_slots_ ? 0 : winner + 1);
  }
}

void RouterEngine::reset_activity() {
  for (auto& a : activity_) a = ActivityCounters{};
}

}  // namespace nocmap
