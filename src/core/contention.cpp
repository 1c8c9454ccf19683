#include "core/contention.h"

#include <algorithm>
#include <limits>

namespace nocmap {

namespace {

/// Direction slot of the link from `from` to adjacent `to`:
/// 0=east, 1=west, 2=south, 3=north, 4=up, 5=down.
constexpr std::size_t kLinkSlots = 6;

std::size_t direction_slot(const Mesh& mesh, TileId from, TileId to) {
  const TileCoord a = mesh.coord_of(from);
  const TileCoord b = mesh.coord_of(to);
  if (b.layer == a.layer) {
    if (b.row == a.row && b.col == a.col + 1) return 0;
    if (b.row == a.row && a.col == b.col + 1) return 1;
    if (b.col == a.col && b.row == a.row + 1) return 2;
    if (b.col == a.col && a.row == b.row + 1) return 3;
  } else if (b.row == a.row && b.col == a.col) {
    if (b.layer == a.layer + 1) return 4;
    if (a.layer == b.layer + 1) return 5;
  }
  throw Error("link endpoints are not mesh-adjacent");
}

/// Invokes fn(at, next) for every directed link on the dimension-order
/// (X, then Y, then Z) path src→dst.
template <typename Fn>
void walk_path(const Mesh& mesh, TileId src, TileId dst, Fn&& fn) {
  TileCoord here = mesh.coord_of(src);
  const TileCoord there = mesh.coord_of(dst);
  TileId at = src;
  while (here.col != there.col) {
    here.col = here.col < there.col ? here.col + 1 : here.col - 1;
    const TileId next = mesh.tile_at(here);
    fn(at, next);
    at = next;
  }
  while (here.row != there.row) {
    here.row = here.row < there.row ? here.row + 1 : here.row - 1;
    const TileId next = mesh.tile_at(here);
    fn(at, next);
    at = next;
  }
  while (here.layer != there.layer) {
    here.layer = here.layer < there.layer ? here.layer + 1 : here.layer - 1;
    const TileId next = mesh.tile_at(here);
    fn(at, next);
    at = next;
  }
}

}  // namespace

std::size_t ContentionModel::link_index(TileId from, TileId to) const {
  return static_cast<std::size_t>(from) * kLinkSlots +
         direction_slot(*mesh_, from, to);
}

void ContentionModel::add_flow(TileId src, TileId dst,
                               double flits_per_cycle) {
  if (src == dst || flits_per_cycle <= 0.0) return;
  walk_path(*mesh_, src, dst, [&](TileId at, TileId next) {
    load_[link_index(at, next)] += flits_per_cycle;
  });
}

void ContentionModel::add_multicast_tree(TileId from,
                                         std::span<const TileId> dests,
                                         double flits_per_cycle) {
  // Shared tree prefixes carry the request once; replication happens at
  // branch points (the same tree TrafficEngine::emit_multicast injects).
  if (flits_per_cycle <= 0.0) return;
  for (const TreeBranch& branch : multicast_branches(*mesh_, from, dests)) {
    add_flow(from, branch.endpoint, flits_per_cycle);
    add_multicast_tree(branch.endpoint, branch.dests, flits_per_cycle);
  }
}

ContentionModel::ContentionModel(const ObmProblem& problem,
                                 const Mapping& mapping,
                                 double injection_scale)
    : mesh_(&problem.mesh()) {
  NOCMAP_REQUIRE(mapping.is_valid_permutation(problem.num_threads()),
                 "contention model needs a valid mapping");
  NOCMAP_REQUIRE(injection_scale > 0.0,
                 "injection scale must be positive");
  load_.assign(problem.num_tiles() * kLinkSlots, 0.0);

  const Workload& wl = problem.workload();
  const auto n = static_cast<double>(problem.num_tiles());
  const MemoryTrafficMode mode = problem.model().mode();
  const auto mcs = mesh_->mc_tiles();

  for (std::size_t j = 0; j < wl.num_threads(); ++j) {
    const ThreadProfile& t = wl.thread(j);
    const TileId s = mapping.tile_of(j);
    // Rates are requests per kilocycle.
    const double cache_rate = t.cache_rate / 1000.0 * injection_scale;
    const double memory_rate = t.memory_rate / 1000.0 * injection_scale;

    if (cache_rate > 0.0) {
      const double per_bank = cache_rate / n;
      for (TileId bank = 0; bank < problem.num_tiles(); ++bank) {
        add_flow(s, bank, per_bank * kShortPacketFlits);
        add_flow(bank, s, per_bank * kLongPacketFlits);
      }
    }
    if (memory_rate > 0.0) {
      switch (mode) {
        case MemoryTrafficMode::kProximity: {
          const TileId mc = mesh_->nearest_mc(s);
          add_flow(s, mc, memory_rate * kShortPacketFlits);
          add_flow(mc, s, memory_rate * kLongPacketFlits);
          break;
        }
        case MemoryTrafficMode::kInterleaved: {
          const double per_mc =
              memory_rate / static_cast<double>(mcs.size());
          for (TileId mc : mcs) {
            add_flow(s, mc, per_mc * kShortPacketFlits);
            add_flow(mc, s, per_mc * kLongPacketFlits);
          }
          break;
        }
        case MemoryTrafficMode::kMulticast: {
          add_multicast_tree(s, mcs, memory_rate * kShortPacketFlits);
          // One data reply, from the designated responder (nearest MC).
          add_flow(mesh_->nearest_mc(s), s, memory_rate * kLongPacketFlits);
          break;
        }
      }
    }
  }
}

double ContentionModel::link_load(TileId from, TileId to) const {
  return load_[link_index(from, to)];
}

double ContentionModel::max_utilization() const {
  return *std::max_element(load_.begin(), load_.end());
}

double ContentionModel::mean_utilization() const {
  // Count only physical links (border tiles lack some directions; their
  // slots stay zero and are excluded).
  const std::size_t links = mesh_->num_directed_links();
  double sum = 0.0;
  for (double u : load_) sum += u;
  return links > 0 ? sum / static_cast<double>(links) : 0.0;
}

double ContentionModel::saturation_scale() const {
  const double u = max_utilization();
  return u > 0.0 ? 1.0 / u : std::numeric_limits<double>::infinity();
}

double ContentionModel::queue_delay(double utilization) {
  const double u = std::clamp(utilization, 0.0, 0.999);
  return u / (2.0 * (1.0 - u));
}

double ContentionModel::predicted_td_q() const {
  // A random flit lands on link L with probability proportional to L's
  // load, and then waits W(u_L).
  double weighted = 0.0;
  double total = 0.0;
  for (double u : load_) {
    weighted += u * queue_delay(u);
    total += u;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

double ContentionModel::total_flit_hops() const {
  double sum = 0.0;
  for (double u : load_) sum += u;
  return sum;
}

}  // namespace nocmap
