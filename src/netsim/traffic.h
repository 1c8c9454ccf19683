// Trace-driven traffic generation on top of the Network (substitution for
// the paper's Simics/GEMS-driven PARSEC traces).
//
// Each mapped thread injects, from its tile, two open-loop Bernoulli
// streams derived from its workload rates: shared-L2 cache requests whose
// destination bank is uniformly address-hashed over all tiles (Section
// II.C), and memory requests whose MC destination follows the configured
// MemoryTrafficMode — nearest MC (the paper's proximity principle),
// per-thread round-robin over all MCs (DRAM address interleaving), or a
// dimension-order multicast tree that replicates the request to every MC
// at branch routers (the NI re-injects child segments where tree branches
// diverge, so the router fabric itself stays unicast; the nearest MC is
// the designated responder for the data reply).
// A request that hits its own tile never enters the network and
// is recorded as a zero-latency access, exactly as the analytic model's
// H = 0 / no-serialization case. When a request ejects at its destination,
// the serviced reply (5-flit data packet) is scheduled back after the L2 or
// memory service latency (6 and 128 cycles, paper Table 2).
#pragma once

#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/problem.h"
#include "latency/model.h"
#include "netsim/network.h"
#include "util/rng.h"

namespace nocmap {

struct TrafficConfig {
  std::uint64_t seed = 1;
  /// Multiplier applied to workload rates (rates are per kilocycle).
  double injection_scale = 1.0;
  /// Bursty (two-state Markov on/off) injection. When enabled, each thread
  /// alternates between ON phases at rate/duty and OFF phases at zero,
  /// preserving its mean rate, with a mean ON+OFF period of 200 cycles —
  /// real applications burst, and bursts stress queuing in ways the mean
  /// cannot. Disabled (steady Bernoulli) by default, matching the analytic
  /// model's assumptions.
  bool bursty = false;
  double burst_duty = 0.3;  ///< fraction of time in the ON state
  /// How memory requests pick their MC destination (latency/model.h).
  MemoryTrafficMode memory_mode = MemoryTrafficMode::kProximity;
};

/// A zero-latency access that never entered the network (src == dst).
struct LocalAccess {
  PacketClass cls;
  std::size_t app;
  std::size_t thread;
};

class TrafficEngine {
 public:
  TrafficEngine(const ObmProblem& problem, const Mapping& mapping,
                const TrafficConfig& config);

  /// Generates this cycle's new requests and due replies into the network.
  /// Appends zero-latency local accesses (if any) to `locals`.
  ///
  /// Two-phase for the partitioned network (DESIGN.md §16): every tile's
  /// draws (burst transitions, emission counts, destinations) touch only
  /// that tile's RNG stream, so the per-tile loop fans out over the
  /// network's row-band domains on its worker team; packet ids are then
  /// assigned and packets injected in a serial commit that walks domains —
  /// and tiles within them — in ascending order, reproducing the one-domain
  /// engine's id sequence and local-access order bit for bit.
  void generate(Network& net, Cycle now, std::vector<LocalAccess>& locals);

  /// Feeds back an ejected request so the next packet of its transaction
  /// gets scheduled. Multicast segments re-inject their child
  /// segments into `net` directly (serial phase).
  void on_ejection(Network& net, const Ejection& ejection, Cycle now);

  /// True when no replies remain to be issued (for drain phases).
  bool idle() const { return pending_replies_.empty(); }

  /// Stops creating *new* requests (drain mode); due replies still issue.
  void stop_generation() { generating_ = false; }

 private:
  struct TileSource {
    std::size_t thread = 0;
    std::size_t app = 0;
    double cache_per_cycle = 0.0;
    double memory_per_cycle = 0.0;
    /// Per-thread stream (forked from the config seed by *thread* id, not
    /// tile), so a thread emits the identical request sequence under every
    /// mapping — mappings are compared on paired traffic.
    Rng rng{0};
    bool burst_on = true;  ///< current Markov state (bursty mode only)
    /// Next MC index in the round-robin rotation (interleaved mode only).
    /// Seeded from the *thread* id so the rotation, like the RNG stream,
    /// is paired across mappings.
    std::uint32_t interleave_next = 0;
  };

  /// One emission decided during the draw phase: a request of class `cls`
  /// from `tile` to `dst` (dst == tile → zero-latency local access). The
  /// commit phase turns these into packet ids and injections.
  struct DrawEntry {
    TileId tile;
    PacketClass cls;
    TileId dst;
  };

  /// Draw phase for one tile: advances the tile's RNG/burst state and
  /// appends this cycle's emissions to `out`. Domain-parallel safe — reads
  /// and writes only sources_[tile] and `out`.
  void draw_tile(TileId tile, std::vector<DrawEntry>& out);

  /// Schedules a transaction's data reply (a long packet) of class `cls`.
  void schedule(Cycle due, PacketClass cls, TileId src, TileId dst,
                std::size_t app, std::size_t thread);

  /// Multicast memory mode: expands the dimension-order tree rooted at
  /// `from` one level, injecting a unicast segment toward each branch point
  /// (kMemoryRequest when the endpoint is an MC delivery, kMemoryForward
  /// when it is a pure branch router). Segments carry the original request
  /// creation cycle so each delivery's recorded latency is end-to-end.
  /// A delivery at `from` itself is recorded into `locals` only by the root
  /// call, which passes it; a segment's ejection already counts as its
  /// delivery sample, so on_ejection passes nullptr. Serial-phase only.
  void emit_multicast(Network& net, TileId from,
                      std::span<const TileId> dests, Cycle created,
                      Cycle now, std::size_t app, std::size_t thread,
                      std::vector<LocalAccess>* locals);

  const ObmProblem* problem_;
  TrafficConfig config_;
  std::vector<TileSource> sources_;   // indexed by tile
  std::vector<TileId> thread_tile_;   // requester tile per thread
  PacketId next_id_ = 1;
  bool generating_ = true;
  // Replies due at a cycle.
  std::multimap<Cycle, PacketInfo> pending_replies_;
  /// In-flight multicast tree segments: the sub-destinations the segment's
  /// endpoint must fan out to (plus the original creation cycle).
  struct MulticastBranch {
    std::vector<TileId> dests;
    Cycle created = 0;
  };
  std::unordered_map<PacketId, MulticastBranch> multicast_;
  // Per-domain draw buffers, reused across cycles (indexed by domain).
  std::vector<std::vector<DrawEntry>> draw_entries_;
};

}  // namespace nocmap
