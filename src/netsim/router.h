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
// t + kRouterCycles (eq. 2's td_r, latency/model.h).
//
// Storage is structure-of-arrays across *all* routers of a mesh
// (RouterEngine), sized for the cache: each router lays out ports × vcs
// input-VC slots (5 ports on a planar mesh, 7 on a stack), each slot's
// control state is one 8-byte record, and the flit pool holds 24-byte flits
// in fixed ring buffers, so the per-cycle loop touches contiguous memory and
// never allocates. Occupancy bitmasks (one bit per input VC slot, ≤ 64
// slots per router) drive both the RC/VA pass and the separable switch
// allocator, and an active-router bitmask lets the network skip idle
// routers entirely — an idle router's tick changes no state, so the skip is
// exact, not approximate. A table of every tile's coordinate replaces the
// divisions of Mesh::coord_of on the per-hop path. DESIGN.md §12 documents
// the engine.
#pragma once

#include <array>
#include <vector>

#include "netsim/types.h"
#include "util/rng.h"

namespace nocmap {

/// Mesh router ports. kLocal connects to the tile's network interface;
/// kUp/kDown are the TSV ports of a stacked mesh. They come *after* kLocal,
/// so a planar router lays out only ports 0–4 and a stacked one all seven
/// with the same (port, vc) numbering of the first five.
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
/// Ports of a planar router: every direction but kUp/kDown.
inline constexpr std::size_t kPlanarPorts = 5;

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

  /// Coordinate of any tile of the mesh (not only this engine's routers).
  const TileCoord& coord(TileId tile) const { return coord_[tile]; }

  /// Deposits a flit into an input VC buffer at cycle `now` and marks the
  /// router active. Throws if the buffer is full (credit protocol
  /// violated).
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

  // --- Active-router worklist. A router is activated by every flit
  // deposit; the caller retires it after a tick that leaves its buffers
  // empty. Words are iterated low-to-high, so scanning set bits visits
  // routers in ascending index order — the same order as a dense loop,
  // which keeps ejection and event push order (and therefore floating-point
  // accumulation order downstream) identical to ticking every router.
  std::size_t num_active_words() const { return active_words_.size(); }
  std::uint64_t active_word(std::size_t w) const { return active_words_[w]; }
  void retire_if_idle(std::size_t router) {
    if (nonempty_mask_[router] == 0) {
      active_words_[router >> 6] &= ~(1ull << (router & 63));
    }
  }

 private:
  /// One input-VC slot's control state, packed so a planar router's 15
  /// slots (3 VCs) span 120 contiguous bytes. The first six fields belong
  /// to the input VC: its ring-buffer cursors into the flit pool and the
  /// route / output VC its packet holds. The last two belong to the output
  /// VC with the same (port, vc) index: its wormhole claim and the credits
  /// left in the downstream buffer.
  struct VcState {
    std::uint8_t head = 0;
    std::uint8_t size = 0;
    std::uint8_t route_valid = 0;
    std::uint8_t out_port = 0;
    std::uint8_t out_vc_valid = 0;
    std::uint8_t out_vc = 0;
    std::uint8_t out_allocated = 0;
    std::uint8_t out_credits = 0;
  };
  static_assert(sizeof(VcState) == 8);
  static_assert(kBufferDepth >= 1 && kBufferDepth <= 255,
                "VC records keep buffer cursors and credits in one byte");

  /// Dimension-order route for a destination from `router` (X-first, or
  /// Y-first when the flit carries the YX sub-route).
  PortDir route(std::size_t router, TileId dst, bool yx) const;

  /// Index of (router, port, vc) into vc_ (and, times kBufferDepth, pool_).
  std::size_t vc_index(std::size_t router, std::size_t port,
                       std::uint32_t vc) const {
    return router * vc_slots_ + port * vcs_ + vc;
  }

  NetworkConfig config_;
  TileId first_tile_ = 0;
  std::size_t num_routers_ = 0;
  std::uint32_t vcs_ = 0;
  std::size_t ports_ = 0;     ///< kPlanarPorts, or kNumPorts on a stack
  std::size_t vc_slots_ = 0;  ///< ports_ * vcs_: VC slots per router

  std::vector<Flit> pool_;    ///< [router][port][vc][kBufferDepth] ring
  std::vector<VcState> vc_;   ///< [router][port][vc]

  // Per (router, output port): round-robin pointer over input VC slots.
  std::vector<std::uint8_t> rr_pointer_;

  // Per router.
  std::vector<std::uint64_t> nonempty_mask_;  ///< bit per occupied VC slot
  std::vector<ActivityCounters> activity_;
  std::vector<Rng> arbiter_rng_;  ///< distance-weighted draws

  std::vector<TileCoord> coord_;  ///< every tile of the mesh, by TileId
  // Slot -> (input port, VC) of a router, and each port's slot mask (the
  // input port a grant makes busy).
  std::array<std::uint8_t, 64> slot_port_{};
  std::array<std::uint8_t, 64> slot_vc_{};
  std::array<std::uint64_t, kNumPorts> port_slot_mask_{};

  std::vector<std::uint64_t> active_words_;
};

}  // namespace nocmap
