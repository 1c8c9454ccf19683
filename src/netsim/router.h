// Canonical 3-stage credit-based wormhole virtual-channel router
// (paper Table 2; substitution for Garnet's router model).
//
// Micro-architecture modelled per cycle:
//  * Input units: per input port, per VC, a FIFO flit buffer of fixed depth.
//    A VC holds one packet at a time (allocated head → tail).
//  * Route computation: XY dimension-order, performed when a head flit
//    reaches the buffer head (look-ahead routing is folded into the fixed
//    3-cycle pipeline latency).
//  * VC allocation: a head flit claims a free VC of the downstream input
//    port (lowest-index free VC wins).
//  * Switch allocation: separable round-robin — each output port grants one
//    input VC per cycle among those with an eligible flit, an allocated
//    output VC, and a downstream credit; each input port sends at most one
//    flit per cycle through the crossbar.
//  * Switch traversal: the granted flit leaves this cycle; the network
//    delivers it to the neighbour after the link latency and returns a
//    credit upstream.
//
// The 3-stage pipeline is modelled as a minimum residence time: a flit that
// entered an input buffer at cycle t is eligible for switch allocation from
// t + router_pipeline.
//
// Storage is structure-of-arrays across *all* routers of a mesh
// (RouterEngine): one flat ring-buffer flit pool plus parallel state arrays
// indexed by (router, port, vc), so the per-cycle loop touches contiguous
// memory and never allocates. Occupancy bitmasks (one bit per input VC
// slot, ≤ 64 slots per router) drive both the RC/VA pass and the separable
// switch allocator, and an active-router bitmask lets the network skip
// idle routers entirely — an idle router's tick changes no state, so the
// skip is exact, not approximate. DESIGN.md §12 documents the engine.
#pragma once

#include <array>
#include <vector>

#include "netsim/types.h"
#include "util/rng.h"

namespace nocmap {

/// Mesh router ports. kLocal connects to the tile's network interface;
/// kUp/kDown are the TSV ports of a stacked mesh. They come *after* kLocal
/// so the (port, vc) slot numbering of a planar router — and with it every
/// round-robin arbitration decision — is unchanged from the 5-port layout:
/// on a 2D mesh slots of ports 5–6 are never occupied, and the allocator
/// skips empty slots, so the extra ports are exactly inert.
enum class PortDir : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kLocal = 4,
  kUp = 5,
  kDown = 6,
};
inline constexpr std::size_t kNumPorts = 7;

inline std::size_t port_index(PortDir d) { return static_cast<std::size_t>(d); }

/// Opposite direction (the input port a flit arrives on after traversing a
/// link out of `d`).
PortDir opposite(PortDir d);

/// A flit leaving a router this cycle.
struct Departure {
  PortDir out_port = PortDir::kLocal;
  std::uint32_t out_vc = 0;
  PortDir in_port = PortDir::kLocal;  ///< where it came from (credit return)
  std::uint32_t in_vc = 0;
  Flit flit;
};

/// Structure-of-arrays router state for `num_routers` consecutive tiles
/// starting at `first_tile`. The Network runs one engine per row-band
/// domain (router index == TileId - first_tile); a one-router engine is a
/// single router in isolation.
class RouterEngine {
 public:
  RouterEngine(const Mesh& mesh, const NetworkConfig& config,
               std::size_t num_routers, TileId first_tile);

  std::size_t num_routers() const { return num_routers_; }

  /// True if the input VC has buffer space for one more flit.
  bool can_accept(std::size_t router, PortDir port, std::uint32_t vc) const;

  /// Deposits a flit into an input VC buffer at cycle `now` and marks the
  /// router active. Precondition: can_accept(router, port, vc).
  void receive_flit(std::size_t router, PortDir port, std::uint32_t vc,
                    const Flit& flit, Cycle now);

  /// Returns one credit to the output unit (port, vc): a downstream buffer
  /// slot was freed.
  void receive_credit(std::size_t router, PortDir port, std::uint32_t vc);

  /// Performs VC allocation + switch allocation + switch traversal for one
  /// cycle; appends departures to `out` in output-port order.
  void tick(std::size_t router, Cycle now, std::vector<Departure>& out);

  const ActivityCounters& activity(std::size_t router) const {
    return activity_[router];
  }
  void reset_activity();

  /// Total flits currently buffered (drain/conservation checks).
  std::size_t buffered_flits(std::size_t router) const {
    return buffered_[router];
  }

  // --- Active-router worklist. A router is activated by every flit
  // deposit; the caller retires it after a tick that leaves its buffers
  // empty. Words are iterated low-to-high, so scanning set bits visits
  // routers in ascending index order — the same order as a dense loop,
  // which keeps ejection and event push order (and therefore floating-point
  // accumulation order downstream) identical to ticking every router.
  std::size_t num_active_words() const { return active_words_.size(); }
  std::uint64_t active_word(std::size_t w) const { return active_words_[w]; }
  void retire_if_idle(std::size_t router) {
    if (buffered_[router] == 0) {
      active_words_[router >> 6] &= ~(1ull << (router & 63));
    }
  }

 private:
  /// Dimension-order route for a destination from `router` (X-first, or
  /// Y-first when the flit carries the YX sub-route).
  PortDir route(std::size_t router, TileId dst, bool yx) const;

  /// Index into the per-input-VC arrays.
  std::size_t vc_index(std::size_t router, std::size_t port,
                       std::uint32_t vc) const {
    return (router * kNumPorts + port) * vcs_ + vc;
  }

  const Mesh* mesh_;
  NetworkConfig config_;
  std::size_t num_routers_ = 0;
  std::uint32_t vcs_ = 0;
  std::uint32_t depth_ = 0;
  std::size_t vc_slots_ = 0;  ///< kNumPorts * vcs_: VC slots per router

  // Per input VC (flattened [router][port][vc]): ring-buffer cursors into
  // the flit pool plus the held route / output-VC claim.
  std::vector<Flit> pool_;  ///< [router][port][vc][depth_] ring storage
  std::vector<std::uint32_t> fifo_head_;
  std::vector<std::uint32_t> fifo_size_;
  std::vector<std::uint8_t> route_valid_;
  std::vector<std::uint8_t> out_port_;
  std::vector<std::uint8_t> out_vc_valid_;
  std::vector<std::uint8_t> out_vc_;

  // Per output VC (same flattening): wormhole allocation + credits.
  std::vector<std::uint8_t> out_allocated_;
  std::vector<std::uint32_t> out_credits_;

  // Per (router, output port): round-robin pointer over input VC slots.
  std::vector<std::uint32_t> rr_pointer_;

  // Per router.
  std::vector<std::uint64_t> nonempty_mask_;  ///< bit per occupied VC slot
  std::vector<std::uint32_t> buffered_;
  std::vector<ActivityCounters> activity_;
  std::vector<Rng> arbiter_rng_;      ///< distance-weighted draws
  std::vector<TileCoord> coord_;      ///< cached mesh coordinates
  std::array<std::uint64_t, kNumPorts> port_slot_mask_{};

  std::vector<std::uint64_t> active_words_;
};

}  // namespace nocmap
