// Whole-network cycle-level model: routers, links, network interfaces.
//
// The Network is spatially partitioned into contiguous row-band *domains*
// (DESIGN.md §16). On a stacked mesh the bands run over global rows
// (layer, row) — the layer-major tile layout makes a band of global rows a
// contiguous (layer, row) slab, so the 2D machinery carries over unchanged
// and vertical hops are just another cross-domain (or intra-domain) link.
// Each domain owns a RouterEngine covering its tiles
// (structure-of-arrays router state; see router.h), the network interfaces
// (NIs) of those tiles, its own next-cycle event bucket (every event the
// fabric makes is due one cycle later), and its own counters — so within a
// cycle every domain's work (event delivery, NI injection, router ticks)
// touches only domain-local state and can run on its own worker. Events
// that cross a domain boundary (flits and credits to the adjacent row band)
// are staged in per-domain outboxes during the parallel phase and committed
// into the target domains' buckets at a per-cycle barrier — the same
// snapshot/commit discipline the mapper engine uses (core/parallel.h). One
// domain (the default) is the same code on a one-worker team, whose phase
// is a direct call on the caller.
//
// Determinism: the partitioned step is bit-identical to the one-domain
// engine at any domain count. Within a cycle a router's tick reads and writes only
// its own domain's state; staged boundary events land at cycle now+1, so no
// domain ever observes another domain's current-cycle writes.
// Event delivery order within a bucket differs from one domain's only
// across domains, and every cross-domain event commutes: flit and credit
// deliveries target distinct (router, port, VC) state, and a directed link
// carries at most one flit per cycle. Ejections — whose order feeds
// floating-point accumulation downstream — are produced only by a tile's
// own domain (a local-port departure never crosses a boundary), collected
// per domain in ascending-tile order, and concatenated in domain order at
// the commit barrier: exactly one domain's ascending-tile order.
//
// Traffic enters through NI source queues (open-loop injection: queues are
// unbounded, so offered load is never throttled by the network — matching
// trace-driven evaluation), moves through the credit-based wormhole fabric,
// and is consumed by NI sinks. The caller drives the clock via step() and
// drains ejection records; packet payload semantics (cache/memory
// transactions, replies) live in traffic.h on top of this layer.
//
// Idle tiles cost nothing: routers are ticked off each domain engine's
// active bitmask and NIs off a per-domain source-queue bitmask, both
// scanned in ascending tile order so event and ejection ordering — and
// with it every floating-point accumulation downstream — is identical to
// the dense loop.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "netsim/router.h"
#include "util/cycle_barrier.h"

namespace nocmap {

/// A packet that fully left the network (its tail flit reached the NI sink).
struct Ejection {
  PacketInfo info;
  Cycle ejected = 0;

  /// End-to-end network latency in cycles: source-queue entry to tail
  /// ejection (includes source queuing and serialization).
  Cycle latency() const { return ejected - info.created; }
};

/// Fabric activity over one stretch of cycles: each router's own counters,
/// and their sum with the network's link traversals. Links are counted by
/// the network, not by a router, so only the total's link_traversals is
/// nonzero.
struct ActivityRecord {
  std::vector<ActivityCounters> routers;  ///< indexed by TileId
  ActivityCounters total;
};

class Network {
 public:
  /// `sim_workers` requests the spatial partition width: the mesh is split
  /// into min(sim_workers, layers*rows) contiguous row-band domains
  /// ((layer, row) slabs on a stacked mesh) stepped on a
  /// persistent worker team (0 resolves to the hardware concurrency).
  /// Results are bit-identical at every worker count; 1 (the default)
  /// spawns no thread.
  Network(const Mesh& mesh, const NetworkConfig& config,
          std::size_t sim_workers = 1);

  const Mesh& mesh() const { return *mesh_; }
  Cycle now() const { return now_; }

  /// Row-band domains the mesh is partitioned into (1 by default).
  std::size_t num_domains() const { return domains_.size(); }
  /// Tiles [first, end) of domain `d` (contiguous, ascending with d).
  TileId domain_first_tile(std::size_t d) const { return domains_[d].first; }
  TileId domain_end_tile(std::size_t d) const { return domains_[d].end; }
  /// The per-cycle worker team, one worker per domain. The traffic layer
  /// fans its per-tile draws over the same domains/team so one barrier
  /// discipline covers the whole cycle.
  CycleWorkerTeam& team() { return team_; }

  /// Flits staged across a domain boundary so far (halo exchange volume;
  /// 0 when running with one domain).
  std::uint64_t boundary_flits() const { return boundary_flits_; }

  /// Queues a packet for injection at info.src. Requires src != dst (local
  /// accesses never enter the network; handle them in the traffic layer).
  /// Serial-phase only (between step() calls).
  void inject_packet(const PacketInfo& info);

  /// Advances the network by one cycle: every domain delivers its due
  /// events, injects from its NIs and ticks its routers (one team worker
  /// per domain), then boundary events and ejections commit serially.
  void step();

  /// Ejections completed since the last call (cleared by the call).
  std::vector<Ejection> take_ejections();

  /// Packets currently inside the network or its source queues.
  std::size_t packets_in_flight() const;
  /// Flits injected into / ejected from the fabric so far (conservation).
  std::uint64_t flits_injected() const;
  std::uint64_t flits_ejected() const;

  /// Zeroes every router's counters and the link-traversal count.
  void reset_activity();
  /// The activity since the last reset_activity(). The record is a copy,
  /// so later traffic (e.g. a drain phase) cannot change a window's
  /// numbers once taken.
  ActivityRecord snapshot_activity() const;

 private:
  struct Ni {
    std::deque<Flit> source_queue;
    // Credit view of the router's local input VCs.
    std::vector<std::uint32_t> credits;
    bool vc_held = false;
    std::uint32_t held_vc = 0;
  };

  /// A packet on its way to a sink: its description plus the flits of it
  /// ejected so far (sink-side reassembly).
  struct InFlight {
    PacketInfo info;
    std::uint32_t flits_received = 0;
  };

  struct PendingFlit {
    TileId router;
    PortDir port;
    std::uint32_t vc;
    Flit flit;
  };
  struct PendingCredit {
    TileId router;
    PortDir port;
    std::uint32_t vc;
  };
  struct PendingSink {
    TileId tile;
    std::uint32_t out_vc;  ///< local output VC to recredit on consumption
    Flit flit;
  };
  struct Bucket {
    std::vector<PendingFlit> flits;
    std::vector<PendingCredit> credits;
    std::vector<PendingCredit> ni_credits;  // port unused; router==tile
    std::vector<PendingSink> sinks;
  };

  /// One row band: every per-cycle mutable structure a worker touches
  /// during the parallel phase lives here, so domains share nothing but
  /// the (const) mesh and config until the commit barrier.
  struct Domain {
    TileId first = 0;
    TileId end = 0;  ///< one past the last tile
    RouterEngine engine;
    /// Events due next cycle at *this domain's* routers, NIs and sinks.
    Bucket next;
    /// Nonempty source queues of this domain's NIs, bit = tile - first.
    std::vector<std::uint64_t> ni_active_words;
    /// Packets expected to eject in this domain (keyed by id, filled at
    /// injection time from info.dst — the sink-side packet table).
    std::unordered_map<PacketId, InFlight> expected;
    /// Ejections produced this cycle, ascending tile order; moved to the
    /// global list (domain order == tile order) at the commit barrier.
    std::vector<Ejection> fresh_ejections;
    /// Cross-boundary events staged during the parallel phase.
    std::vector<PendingFlit> out_flits;
    std::vector<PendingCredit> out_credits;
    std::vector<Departure> scratch;
    std::uint64_t flits_injected = 0;
    std::uint64_t flits_ejected = 0;
    std::uint64_t link_traversals = 0;
    std::uint64_t packets_completed = 0;

    Domain(const Mesh& mesh, const NetworkConfig& config, TileId first_tile,
           TileId end_tile);
  };

  std::size_t domain_of(TileId tile) const {
    return row_domain_[tile / cols_];
  }
  /// The tile one link from `tile` (a tile of `d`) through port `dir`.
  TileId neighbor(const Domain& d, TileId tile, PortDir dir) const;

  /// The parallel phase of one cycle for one domain: deliver due events,
  /// inject from NIs, tick routers. Touches only `d`'s state (plus the
  /// disjoint nis_ entries of `d`'s tiles).
  void step_domain(Domain& d);
  void deliver_due_events(Domain& d);
  void inject_from_nis(Domain& d);
  void tick_routers(Domain& d);
  void process_sink(Domain& d, const PendingSink& sink);
  /// The serial phase: routes staged boundary events into the owning
  /// domains' buckets and concatenates fresh ejections in domain order.
  void commit_cycle();

  const Mesh* mesh_;
  NetworkConfig config_;
  std::uint32_t cols_ = 1;
  TileId layer_tiles_ = 1;  ///< rows * cols: the stride of a TSV hop
  Cycle now_ = 0;

  std::vector<Domain> domains_;
  std::vector<std::size_t> row_domain_;  ///< mesh row -> owning domain

  std::vector<Ni> nis_;
  std::vector<Ejection> ejections_;
  std::uint64_t packets_injected_ = 0;
  std::uint64_t boundary_flits_ = 0;
  /// One worker per domain; last, so its threads are joined before the
  /// state their phases touch is destroyed.
  CycleWorkerTeam team_;
};

}  // namespace nocmap
