#include "netsim/network.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/parallel.h"
#include "util/rng.h"

namespace nocmap {

// Flits cross any link in one cycle, as credits and sink hand-offs do, so
// every event the fabric makes lands in its domain's next-cycle bucket.
static_assert(kLinkCycles == 1, "a later event would need a ring of buckets");

namespace {

/// Constructor gate: the engines are members, so validate before they build.
const Mesh& require_simulable(const Mesh& mesh) {
  NOCMAP_REQUIRE(!mesh.is_torus(),
                 "the cycle-level simulator models meshes only (the torus "
                 "is an analytic extension; see ext_torus)");
  return mesh;
}

/// Row bands the mesh splits into: min(workers, global rows), where global
/// rows count layers*rows.
std::size_t band_count(const Mesh& mesh, std::size_t sim_workers) {
  return std::min<std::size_t>(ParallelConfig{sim_workers}.resolved_threads(),
                               std::size_t{mesh.rows()} * mesh.layers());
}

}  // namespace

Network::Domain::Domain(const Mesh& mesh, const NetworkConfig& config,
                        TileId first_tile, TileId end_tile)
    : first(first_tile),
      end(end_tile),
      engine(mesh, config, end_tile - first_tile, first_tile) {
  ni_active_words.assign((end_tile - first_tile + 63) / 64, 0);
}

Network::Network(const Mesh& mesh, const NetworkConfig& config,
                 std::size_t sim_workers)
    : mesh_(&require_simulable(mesh)),
      config_(config),
      cols_(mesh.cols()),
      layer_tiles_(static_cast<TileId>(mesh.tiles_per_layer())),
      team_(band_count(mesh, sim_workers)) {
  NOCMAP_REQUIRE(
      config.routing != RoutingAlgo::kO1Turn || config.vcs_per_port >= 2,
      "O1TURN needs at least two VCs to partition between sub-routes");
  const std::size_t n = mesh.num_tiles();
  nis_.resize(n);
  for (auto& ni : nis_) {
    ni.credits.assign(config.vcs_per_port, kBufferDepth);
  }

  // Row-band partition: one contiguous band per team worker, the remainder
  // rows spread over the leading bands. The layer-major layout makes a band
  // of global rows a contiguous (layer, row) slab of a stacked mesh. Any
  // partition yields bit-identical results (header determinism argument);
  // the band count only sets how many workers can help.
  const std::uint32_t rows = mesh.rows() * mesh.layers();
  const auto num_domains = static_cast<std::uint32_t>(team_.size());
  domains_.reserve(num_domains);
  row_domain_.reserve(rows);
  const std::uint32_t base = rows / num_domains;
  const std::uint32_t extra = rows % num_domains;
  std::uint32_t row = 0;
  for (std::uint32_t d = 0; d < num_domains; ++d) {
    const std::uint32_t band = base + (d < extra ? 1 : 0);
    domains_.emplace_back(mesh, config, row * cols_, (row + band) * cols_);
    for (std::uint32_t r = 0; r < band; ++r) row_domain_.push_back(d);
    row += band;
  }
}

TileId Network::neighbor(const Domain& d, TileId tile, PortDir dir) const {
  const TileCoord& c = d.engine.coord(tile);
  switch (dir) {
    case PortDir::kNorth:
      NOCMAP_REQUIRE(c.row > 0, "no north neighbor");
      return tile - cols_;
    case PortDir::kSouth:
      NOCMAP_REQUIRE(c.row + 1 < mesh_->rows(), "no south neighbor");
      return tile + cols_;
    case PortDir::kEast:
      NOCMAP_REQUIRE(c.col + 1 < mesh_->cols(), "no east neighbor");
      return tile + 1;
    case PortDir::kWest:
      NOCMAP_REQUIRE(c.col > 0, "no west neighbor");
      return tile - 1;
    case PortDir::kUp:
      NOCMAP_REQUIRE(c.layer + 1 < mesh_->layers(), "no up neighbor");
      return tile + layer_tiles_;
    case PortDir::kDown:
      NOCMAP_REQUIRE(c.layer > 0, "no down neighbor");
      return tile - layer_tiles_;
    case PortDir::kLocal:
      break;
  }
  throw Error("local port has no neighbor");
}

void Network::inject_packet(const PacketInfo& info) {
  NOCMAP_REQUIRE(info.src != info.dst,
                 "local accesses bypass the network (traffic layer bug)");
  NOCMAP_REQUIRE(info.src < mesh_->num_tiles() && info.dst < mesh_->num_tiles(),
                 "packet endpoint out of range");
  NOCMAP_REQUIRE(info.flits >= 1, "packet must have at least one flit");

  // The packet table lives with the domain that will eject it.
  Domain& sink_domain = domains_[domain_of(info.dst)];
  NOCMAP_REQUIRE(sink_domain.expected.emplace(info.id, InFlight{info}).second,
                 "duplicate packet id");
  ++packets_injected_;

  Ni& ni = nis_[info.src];
  // Sub-route choice: fixed by the routing algorithm, or (O1TURN) a
  // deterministic balanced pick keyed on the packet id.
  bool yx = false;
  switch (config_.routing) {
    case RoutingAlgo::kXY: yx = false; break;
    case RoutingAlgo::kYX: yx = true; break;
    case RoutingAlgo::kO1Turn: yx = (splitmix64(info.id) & 1u) != 0; break;
  }
  for (std::uint32_t f = 0; f < info.flits; ++f) {
    Flit flit;
    flit.packet = info.id;
    flit.is_head = (f == 0);
    flit.is_tail = (f + 1 == info.flits);
    flit.yx = yx;
    flit.dst = info.dst;
    ni.source_queue.push_back(flit);
  }
  Domain& src_domain = domains_[domain_of(info.src)];
  const TileId local = info.src - src_domain.first;
  src_domain.ni_active_words[local >> 6] |= 1ull << (local & 63);
}

void Network::deliver_due_events(Domain& d) {
  // No handler below makes an event, so this cycle's ticks refill the bucket.
  Bucket& bucket = d.next;
  for (const auto& pf : bucket.flits) {
    d.engine.receive_flit(pf.router - d.first, pf.port, pf.vc, pf.flit, now_);
  }
  for (const auto& pc : bucket.credits) {
    d.engine.receive_credit(pc.router - d.first, pc.port, pc.vc);
  }
  for (const auto& nc : bucket.ni_credits) {
    Ni& ni = nis_[nc.router];
    NOCMAP_ASSERT(ni.credits[nc.vc] < kBufferDepth);
    ++ni.credits[nc.vc];
  }
  for (const auto& sink : bucket.sinks) {
    process_sink(d, sink);
  }
  bucket.flits.clear();
  bucket.credits.clear();
  bucket.ni_credits.clear();
  bucket.sinks.clear();
}

void Network::inject_from_nis(Domain& d) {
  // Ascending-tile scan of the domain's NIs with queued flits (same visit
  // order as the dense loop; an empty NI's iteration was a no-op).
  for (std::size_t w = 0; w < d.ni_active_words.size(); ++w) {
    std::uint64_t bits = d.ni_active_words[w];
    while (bits) {
      const auto t = static_cast<TileId>(
          d.first + w * 64 +
          static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      Ni& ni = nis_[t];
      const Flit& front = ni.source_queue.front();

      if (front.is_head && !ni.vc_held) {
        // Claim a local-input VC with available credit for the new packet,
        // restricted to the packet's sub-route class.
        std::uint32_t lo = 0;
        std::uint32_t hi = config_.vcs_per_port;
        config_.vc_range(front.yx, lo, hi);
        for (std::uint32_t v = lo; v < hi; ++v) {
          if (ni.credits[v] > 0) {
            ni.vc_held = true;
            ni.held_vc = v;
            break;
          }
        }
      }
      if (!ni.vc_held || ni.credits[ni.held_vc] == 0) continue;

      --ni.credits[ni.held_vc];
      d.engine.receive_flit(t - d.first, PortDir::kLocal, ni.held_vc, front,
                            now_);
      ++d.flits_injected;
      if (front.is_tail) ni.vc_held = false;
      ni.source_queue.pop_front();
      if (ni.source_queue.empty()) {
        const TileId local = t - d.first;
        d.ni_active_words[local >> 6] &= ~(1ull << (local & 63));
      }
    }
  }
}

void Network::tick_routers(Domain& d) {
  // Ascending-tile scan of the domain's routers with buffered flits. A
  // router without buffered flits changes no state in a tick (route/VA
  // touch only occupied VCs, the switch allocator has no candidates and
  // the distance-weighted arbiter draws no random number), so skipping it
  // is exact, and the scan order keeps bucket push order — flits, credits,
  // sinks — identical to ticking every router in tile order.
  for (std::size_t w = 0; w < d.engine.num_active_words(); ++w) {
    std::uint64_t bits = d.engine.active_word(w);
    while (bits) {
      const auto local = static_cast<std::size_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const auto t = static_cast<TileId>(d.first + local);
      d.scratch.clear();
      d.engine.tick(local, now_, d.scratch);
      for (const Departure& dep : d.scratch) {
        // Credit for the freed input buffer slot, one cycle upstream.
        if (dep.in_port == PortDir::kLocal) {
          d.next.ni_credits.push_back({t, PortDir::kLocal, dep.in_vc});
        } else {
          const TileId up = neighbor(d, t, dep.in_port);
          const bool local_up = up >= d.first && up < d.end;
          (local_up ? d.next.credits : d.out_credits)
              .push_back({up, opposite(dep.in_port), dep.in_vc});
        }
        // The flit itself.
        if (dep.out_port == PortDir::kLocal) {
          d.next.sinks.push_back({t, dep.out_vc, dep.flit});
        } else {
          const TileId down = neighbor(d, t, dep.out_port);
          Flit forwarded = dep.flit;
          ++forwarded.hops;  // distance credit for the arbiter
          const bool local_down = down >= d.first && down < d.end;
          (local_down ? d.next.flits : d.out_flits)
              .push_back({down, opposite(dep.out_port), dep.out_vc, forwarded});
          ++d.link_traversals;
        }
      }
      d.engine.retire_if_idle(local);
    }
  }
}

void Network::process_sink(Domain& d, const PendingSink& sink) {
  ++d.flits_ejected;
  // The NI consumes the flit immediately; recredit the router's local
  // output VC so ejection never stalls.
  d.engine.receive_credit(sink.tile - d.first, PortDir::kLocal, sink.out_vc);
  const auto it = d.expected.find(sink.flit.packet);
  NOCMAP_REQUIRE(it != d.expected.end(), "flit for unknown packet");
  InFlight& packet = it->second;
  ++packet.flits_received;
  if (!sink.flit.is_tail) return;

  NOCMAP_REQUIRE(packet.flits_received == packet.info.flits,
                 "tail ejected before all body flits");
  NOCMAP_REQUIRE(packet.info.dst == sink.tile, "packet ejected at wrong tile");
  d.fresh_ejections.push_back({packet.info, now_});
  d.expected.erase(it);
  ++d.packets_completed;
}

void Network::step_domain(Domain& d) {
  deliver_due_events(d);
  inject_from_nis(d);
  tick_routers(d);
}

void Network::commit_cycle() {
  // Serial phase. Domains ascend, so concatenating fresh ejections (each
  // ascending-tile within its domain) reproduces the serial engine's
  // ascending-tile ejection order; staged boundary events commute with the
  // target bucket's existing entries (header determinism argument).
  for (Domain& d : domains_) {
    for (const PendingFlit& pf : d.out_flits) {
      domains_[domain_of(pf.router)].next.flits.push_back(pf);
    }
    boundary_flits_ += d.out_flits.size();
    d.out_flits.clear();
    for (const PendingCredit& pc : d.out_credits) {
      domains_[domain_of(pc.router)].next.credits.push_back(pc);
    }
    d.out_credits.clear();
    if (!d.fresh_ejections.empty()) {
      ejections_.insert(ejections_.end(), d.fresh_ejections.begin(),
                        d.fresh_ejections.end());
      d.fresh_ejections.clear();
    }
  }
}

void Network::step() {
  team_.run([this](std::size_t d) { step_domain(domains_[d]); });
  commit_cycle();
  ++now_;
}

std::vector<Ejection> Network::take_ejections() {
  return std::exchange(ejections_, {});
}

std::size_t Network::packets_in_flight() const {
  std::uint64_t completed = 0;
  for (const Domain& d : domains_) completed += d.packets_completed;
  return static_cast<std::size_t>(packets_injected_ - completed);
}

std::uint64_t Network::flits_injected() const {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.flits_injected;
  return total;
}

std::uint64_t Network::flits_ejected() const {
  std::uint64_t total = 0;
  for (const Domain& d : domains_) total += d.flits_ejected;
  return total;
}

void Network::reset_activity() {
  for (Domain& d : domains_) {
    d.engine.reset_activity();
    d.link_traversals = 0;
  }
}

ActivityRecord Network::snapshot_activity() const {
  ActivityRecord record;
  record.routers.reserve(mesh_->num_tiles());
  std::uint64_t links = 0;
  for (const Domain& d : domains_) {
    for (std::size_t r = 0; r < d.engine.num_routers(); ++r) {
      record.routers.push_back(d.engine.activity(r));
      record.total += d.engine.activity(r);
    }
    links += d.link_traversals;
  }
  record.total.link_traversals = links;
  return record;
}

}  // namespace nocmap
