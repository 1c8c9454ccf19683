#include "netsim/traffic.h"

#include <algorithm>
#include <cmath>

namespace nocmap {

// Service latencies of a shared-L2 bank and of a memory controller (paper
// Table 2), and the mean ON+OFF period of a bursty source, in cycles.
constexpr Cycle kL2ServiceLatency = 6;
constexpr Cycle kMemoryServiceLatency = 128;
constexpr double kBurstDwellCycles = 200;

TrafficEngine::TrafficEngine(const ObmProblem& problem, const Mapping& mapping,
                             const TrafficConfig& config)
    : problem_(&problem), config_(config) {
  NOCMAP_REQUIRE(mapping.is_valid_permutation(problem.num_threads()),
                 "traffic engine needs a valid mapping");
  NOCMAP_REQUIRE(config.injection_scale > 0.0,
                 "injection scale must be positive");
  NOCMAP_REQUIRE(!config.bursty || (config.burst_duty > 0.0 &&
                                    config.burst_duty < 1.0),
                 "burst duty must be in (0,1)");

  const Rng base(splitmix64(config.seed) ^ 0x9d3f5c1e2b4a6879ULL);
  sources_.resize(problem.num_tiles());
  thread_tile_.resize(problem.num_threads());
  const Workload& wl = problem.workload();
  for (std::size_t j = 0; j < wl.num_threads(); ++j) {
    const TileId tile = mapping.tile_of(j);
    thread_tile_[j] = tile;
    TileSource& src = sources_[tile];
    src.thread = j;
    src.app = wl.application_of(j);
    // Workload rates are requests per kilocycle.
    src.cache_per_cycle =
        wl.thread(j).cache_rate / 1000.0 * config.injection_scale;
    src.memory_per_cycle =
        wl.thread(j).memory_rate / 1000.0 * config.injection_scale;
    src.rng = base.fork(j);
    if (config.bursty) {
      // Start in the stationary distribution to avoid an all-ON transient.
      src.burst_on = src.rng.bernoulli(config.burst_duty);
    }
    // Stagger rotation starts by thread so interleaved requests don't all
    // open on the same MC (real interleaving hashes addresses).
    src.interleave_next = static_cast<std::uint32_t>(
        j % problem.mesh().mc_tiles().size());
  }
}

void TrafficEngine::draw_tile(TileId tile, std::vector<DrawEntry>& out) {
  const Mesh& mesh = problem_->mesh();
  TileSource& src = sources_[tile];
  double burst_gain = 1.0;
  if (config_.bursty &&
      (src.cache_per_cycle > 0.0 || src.memory_per_cycle > 0.0)) {
    // Two-state Markov modulation: ON at rate/duty, OFF at zero; dwell
    // times chosen so the long-run mean rate is unchanged.
    const double t_on = config_.burst_duty * kBurstDwellCycles;
    const double t_off = (1.0 - config_.burst_duty) * kBurstDwellCycles;
    if (src.burst_on) {
      if (src.rng.bernoulli(std::min(1.0, 1.0 / t_on))) {
        src.burst_on = false;
      }
    } else if (src.rng.bernoulli(std::min(1.0, 1.0 / t_off))) {
      src.burst_on = true;
    }
    if (!src.burst_on) return;
    burst_gain = 1.0 / config_.burst_duty;
  }

  for (const auto& [base_rate, cls] :
       {std::pair{src.cache_per_cycle, PacketClass::kCacheRequest},
        std::pair{src.memory_per_cycle, PacketClass::kMemoryRequest}}) {
    const double rate = base_rate * burst_gain;
    if (rate <= 0.0) continue;
    // Rates above one request/cycle inject the integer part
    // deterministically plus a Bernoulli fractional part.
    auto count = static_cast<std::uint32_t>(rate);
    if (src.rng.bernoulli(rate - std::floor(rate))) ++count;
    for (std::uint32_t c = 0; c < count; ++c) {
      TileId dst = 0;
      if (cls == PacketClass::kCacheRequest) {
        // Address-hashed bank: uniform over all tiles, including this one.
        dst = static_cast<TileId>(src.rng.uniform_u32(
            static_cast<std::uint32_t>(mesh.num_tiles())));
      } else {
        switch (config_.memory_mode) {
          case MemoryTrafficMode::kProximity:
            dst = mesh.nearest_mc(tile);
            break;
          case MemoryTrafficMode::kInterleaved: {
            const auto mcs = mesh.mc_tiles();
            dst = mcs[src.interleave_next];
            src.interleave_next = static_cast<std::uint32_t>(
                (src.interleave_next + 1) % mcs.size());
            break;
          }
          case MemoryTrafficMode::kMulticast:
            // Sentinel: the commit phase expands the tree from the source
            // tile itself (a DrawEntry carries a single destination).
            dst = tile;
            break;
        }
      }
      out.push_back({tile, cls, dst});
    }
  }
}

void TrafficEngine::generate(Network& net, Cycle now,
                             std::vector<LocalAccess>& locals) {
  // Issue replies that have finished service.
  for (auto it = pending_replies_.begin();
       it != pending_replies_.end() && it->first <= now;
       it = pending_replies_.erase(it)) {
    PacketInfo pkt = it->second;
    pkt.created = now;
    if (pkt.src == pkt.dst) {
      // A multicast reply from an MC on the requester's own tile: zero
      // latency.
      locals.push_back({pkt.cls, pkt.app, pkt.thread});
      continue;
    }
    net.inject_packet(pkt);
  }

  if (!generating_) return;

  // Draw phase: per-tile RNG advances, fanned over the network's domains
  // on its team (one domain: a direct call on the caller).
  const std::size_t nd = net.num_domains();
  draw_entries_.resize(std::max(draw_entries_.size(), nd));
  net.team().run([&](std::size_t d) {
    std::vector<DrawEntry>& out = draw_entries_[d];
    out.clear();
    const TileId end = net.domain_end_tile(d);
    for (TileId tile = net.domain_first_tile(d); tile < end; ++tile) {
      draw_tile(tile, out);
    }
  });

  // Commit phase (serial): domains ascend and tiles ascend within each, so
  // ids and local-access records land in ascending-tile order — one
  // domain's exact sequence.
  for (std::size_t d = 0; d < nd; ++d) {
    for (const DrawEntry& e : draw_entries_[d]) {
      const TileSource& src = sources_[e.tile];
      if (e.cls == PacketClass::kMemoryRequest &&
          config_.memory_mode == MemoryTrafficMode::kMulticast) {
        emit_multicast(net, e.tile, problem_->mesh().mc_tiles(), now, now,
                       src.app, src.thread, &locals);
        continue;
      }
      if (e.dst == e.tile) {
        // Local access: no packets at all; record request and reply as
        // zero-latency samples to stay comparable with the analytic
        // average.
        locals.push_back({e.cls, src.app, src.thread});
        locals.push_back({e.cls == PacketClass::kCacheRequest
                              ? PacketClass::kCacheReply
                              : PacketClass::kMemoryReply,
                          src.app, src.thread});
        continue;
      }
      PacketInfo info;
      info.id = next_id_++;
      info.cls = e.cls;
      info.src = e.tile;
      info.dst = e.dst;
      info.flits = kShortPacketFlits;
      info.app = src.app;
      info.thread = src.thread;
      info.created = now;
      net.inject_packet(info);
    }
  }
}

void TrafficEngine::emit_multicast(Network& net, TileId from,
                                   std::span<const TileId> dests,
                                   Cycle created, Cycle now, std::size_t app,
                                   std::size_t thread,
                                   std::vector<LocalAccess>* locals) {
  const Mesh& mesh = problem_->mesh();
  const TileId requester = thread_tile_[thread];
  const TileId responder = mesh.nearest_mc(requester);

  // Delivery at this tile itself (the root is an MC, or a branch point
  // landed exactly on one).
  if (std::find(dests.begin(), dests.end(), from) != dests.end()) {
    if (locals != nullptr) {
      locals->push_back({PacketClass::kMemoryRequest, app, thread});
    }
    if (from == responder) {
      schedule(now + kMemoryServiceLatency,
               PacketClass::kMemoryReply, from, requester, app, thread);
    }
  }

  for (TreeBranch& branch : multicast_branches(mesh, from, dests)) {
    const bool delivers =
        std::find(branch.dests.begin(), branch.dests.end(),
                  branch.endpoint) != branch.dests.end();
    PacketInfo info;
    info.id = next_id_++;
    info.cls = delivers ? PacketClass::kMemoryRequest
                        : PacketClass::kMemoryForward;
    info.src = from;
    info.dst = branch.endpoint;
    info.flits = kShortPacketFlits;
    info.app = app;
    info.thread = thread;
    info.created = created;
    multicast_.emplace(info.id,
                       MulticastBranch{std::move(branch.dests), created});
    net.inject_packet(info);
  }
}

void TrafficEngine::schedule(Cycle due, PacketClass cls, TileId src,
                             TileId dst, std::size_t app,
                             std::size_t thread) {
  PacketInfo pkt;
  pkt.id = next_id_++;
  pkt.cls = cls;
  pkt.src = src;
  pkt.dst = dst;
  pkt.flits = kLongPacketFlits;
  pkt.app = app;
  pkt.thread = thread;
  pending_replies_.emplace(due, pkt);
}

void TrafficEngine::on_ejection(Network& net, const Ejection& ejection,
                                Cycle now) {
  const PacketInfo& pkt = ejection.info;
  const TileId requester = thread_tile_[pkt.thread];

  // Multicast tree segments (delivery or pure branch) continue the fan-out
  // from their endpoint; the reply comes from the designated responder
  // inside emit_multicast. Requests carry a branch record; a kMemoryRequest
  // without one is a plain unicast request from the other modes.
  if (auto it = multicast_.find(pkt.id); it != multicast_.end()) {
    MulticastBranch branch = std::move(it->second);
    multicast_.erase(it);
    emit_multicast(net, pkt.dst, branch.dests, branch.created,
                   now, pkt.app, pkt.thread, nullptr);
    return;
  }

  switch (pkt.cls) {
    case PacketClass::kCacheRequest:
      schedule(now + kL2ServiceLatency, PacketClass::kCacheReply, pkt.dst,
               requester, pkt.app, pkt.thread);
      break;
    case PacketClass::kMemoryRequest:
      schedule(now + kMemoryServiceLatency,
               PacketClass::kMemoryReply, pkt.dst, requester, pkt.app,
               pkt.thread);
      break;
    case PacketClass::kCacheReply:
    case PacketClass::kMemoryReply:
      break;  // transaction complete
    case PacketClass::kMemoryForward:
      break;  // always carries a branch record; handled above
  }
}

}  // namespace nocmap
