// Shared types of the cycle-level NoC simulator (substitution for the
// paper's Garnet; DESIGN.md §5.2).
//
// The simulator models the paper's Table-2 network: a mesh of canonical
// 3-stage credit-based wormhole routers with virtual channels and XY
// (dimension-order) routing; 128-bit links make request packets 1 flit and
// 64-byte data replies 5 flits. The router and link delays and the packet
// sizes are the constants of latency/model.h, which eq. 2 reads too. A flit
// carries only what the routers read (packet id, destination, sub-route,
// head/tail flags, hop count, buffer-entry cycle); the packet's description
// stays in the sink's packet table (network.h).
#pragma once

#include <cstdint>
#include <limits>

#include "latency/model.h"
#include "topology/mesh.h"

namespace nocmap {

using Cycle = std::uint64_t;
using PacketId = std::uint64_t;

inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Flits per VC input buffer (paper Table 2).
inline constexpr std::uint32_t kBufferDepth = 5;

/// The packet kinds of the paper's latency model (Section II.C, eq. 3–4):
/// cache and memory requests and their data replies.
enum class PacketClass : std::uint8_t {
  kCacheRequest,   ///< core → hashed L2 bank, short (1 flit)
  kCacheReply,     ///< L2 bank → core, long (5 flits)
  kMemoryRequest,  ///< core → MC (delivery segment), short (1 flit)
  kMemoryReply,    ///< MC → core, long (5 flits)
  /// Multicast-tree forwarding segment: a memory request travelling toward
  /// a branch router where the NI replicates it (multicast memory mode
  /// only). Segments whose endpoint is an MC use kMemoryRequest so the
  /// per-class delivery statistics stay end-to-end.
  kMemoryForward,
};
inline constexpr std::size_t kNumPacketClasses = 5;

/// Immutable description of one packet in flight.
struct PacketInfo {
  PacketId id = 0;
  PacketClass cls = PacketClass::kCacheRequest;
  TileId src = 0;
  TileId dst = 0;
  std::uint32_t flits = 1;
  std::size_t app = 0;        ///< owning application (replies inherit it)
  std::size_t thread = 0;     ///< originating thread (global index)
  Cycle created = 0;          ///< cycle the packet entered the source queue
};

/// Deterministic routing algorithms. XY is the paper's configuration
/// (deadlock-free dimension order, Section II.C); YX is its transpose;
/// O1TURN picks XY or YX per packet (balanced by packet id) and stays
/// deadlock-free by partitioning the VCs between the two sub-routes.
enum class RoutingAlgo : std::uint8_t { kXY, kYX, kO1Turn };

/// One flow-control unit. Wormhole switching moves these individually.
/// Packed into 24 bytes: the router engine's flit pool, every in-flight
/// link event and every source queue hold flits by value, so their size is
/// the simulator's working set.
struct Flit {
  PacketId packet = 0;
  Cycle enqueued = 0;  ///< cycle it entered the current input buffer
  TileId dst = 0;
  /// Links traversed so far; fuels distance-weighted arbitration. Dimension-
  /// order routing bounds it by the mesh diameter, which RouterEngine checks
  /// fits.
  std::uint16_t hops = 0;
  bool is_head : 1 = false;
  bool is_tail : 1 = false;
  bool yx : 1 = false;  ///< true = Y-first sub-route (YX / O1TURN second class)
};
static_assert(sizeof(Flit) == 24);

/// Switch-allocation policy. kRoundRobin is the canonical fair arbiter;
/// kDistanceWeighted is a simplified probabilistic distance-based
/// arbitration (paper reference [16], Lee et al.) that favours flits that
/// have already travelled farther — the *architectural* alternative to
/// mapping-stage latency balancing that the paper's Section I argues can
/// be avoided by balancing at the mapping stage instead.
enum class Arbitration : std::uint8_t { kRoundRobin, kDistanceWeighted };

/// Activity counters that feed the DSENT-lite power model. All counts are
/// events over the measured window.
struct ActivityCounters {
  std::uint64_t buffer_writes = 0;     ///< flit written into an input VC
  std::uint64_t buffer_reads = 0;      ///< flit read out of an input VC
  std::uint64_t crossbar_traversals = 0;
  std::uint64_t link_traversals = 0;   ///< inter-router link flit-hops
  std::uint64_t sw_arbitrations = 0;   ///< switch-allocator grants
  std::uint64_t vc_allocations = 0;    ///< output-VC grants (head flits)
  /// Cycles flits spent waiting in input buffers beyond the router
  /// pipeline minimum — the measured counterpart of the analytic td_q.
  std::uint64_t queue_wait_cycles = 0;

  ActivityCounters& operator+=(const ActivityCounters& o) {
    buffer_writes += o.buffer_writes;
    buffer_reads += o.buffer_reads;
    crossbar_traversals += o.crossbar_traversals;
    link_traversals += o.link_traversals;
    sw_arbitrations += o.sw_arbitrations;
    vc_allocations += o.vc_allocations;
    queue_wait_cycles += o.queue_wait_cycles;
    return *this;
  }

  /// Average per-hop queuing delay in cycles (paper Section II.C: observed
  /// 0..1 at evaluated loads). Hops are counted as buffer reads.
  double avg_queue_wait() const {
    return buffer_reads > 0 ? static_cast<double>(queue_wait_cycles) /
                                  static_cast<double>(buffer_reads)
                            : 0.0;
  }
};

/// Router/network micro-architecture parameters (paper Table 2 defaults).
struct NetworkConfig {
  std::uint32_t vcs_per_port = 3;  ///< virtual channels per input port
  RoutingAlgo routing = RoutingAlgo::kXY;  ///< the paper uses XY
  Arbitration arbitration = Arbitration::kRoundRobin;

  /// VC range [lo, hi) a flit of the given sub-route may claim. Under
  /// O1TURN the VCs are split between the XY and YX classes (deadlock
  /// freedom); otherwise all VCs are shared.
  void vc_range(bool yx, std::uint32_t& lo, std::uint32_t& hi) const {
    if (routing == RoutingAlgo::kO1Turn) {
      const std::uint32_t mid = vcs_per_port / 2;
      lo = yx ? mid : 0;
      hi = yx ? vcs_per_port : mid;
    } else {
      lo = 0;
      hi = vcs_per_port;
    }
  }
};

}  // namespace nocmap
