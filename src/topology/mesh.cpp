#include "topology/mesh.h"

#include <algorithm>
#include <array>
#include <limits>

#include "util/parse.h"

namespace nocmap {

namespace {

std::uint32_t abs_diff(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : b - a;
}

}  // namespace

std::uint32_t parse_mesh_side(std::string_view text, std::string_view what) {
  const auto side = parse_number<std::uint32_t>(text, what);
  NOCMAP_REQUIRE(side >= 2 && side <= kMaxMeshSide,
                 std::string(what) + " is " + std::string(text) +
                     ", outside the mesh sides 2.." +
                     std::to_string(kMaxMeshSide));
  return side;
}

const char* mc_placement_name(McPlacement placement) {
  switch (placement) {
    case McPlacement::kCorners: return "corners";
    case McPlacement::kEdgeMiddles: return "edge_middles";
    case McPlacement::kDiamond: return "diamond";
    case McPlacement::kRandom: return "random";
  }
  return "corners";
}

bool mc_placement_from_name(const std::string& name, McPlacement& out) {
  if (name == "corners") out = McPlacement::kCorners;
  else if (name == "edge_middles") out = McPlacement::kEdgeMiddles;
  else if (name == "diamond") out = McPlacement::kDiamond;
  else if (name == "random") out = McPlacement::kRandom;
  else return false;
  return true;
}

Mesh Mesh::square(std::uint32_t n) {
  return square_with_placement(n, McPlacement::kCorners);
}

Mesh Mesh::square_torus(std::uint32_t n) {
  NOCMAP_REQUIRE(n >= 2, "mesh side must be at least 2");
  auto at = [n](std::uint32_t r, std::uint32_t c) { return r * n + c; };
  return Mesh(n, n,
              {at(0, 0), at(0, n - 1), at(n - 1, 0), at(n - 1, n - 1)},
              Wraparound::kTorus);
}

Mesh Mesh::square_with_placement(std::uint32_t n, McPlacement placement) {
  NOCMAP_REQUIRE(n >= 2, "mesh side must be at least 2");
  std::vector<TileId> mcs;
  auto at = [n](std::uint32_t r, std::uint32_t c) { return r * n + c; };
  switch (placement) {
    case McPlacement::kCorners:
      mcs = {at(0, 0), at(0, n - 1), at(n - 1, 0), at(n - 1, n - 1)};
      break;
    case McPlacement::kEdgeMiddles: {
      const std::uint32_t m = n / 2;
      mcs = {at(0, m), at(m, 0), at(m, n - 1), at(n - 1, m)};
      break;
    }
    case McPlacement::kDiamond: {
      const std::uint32_t lo = (n - 1) / 2;
      const std::uint32_t hi = n / 2;
      mcs = {at(lo, lo), at(lo, hi), at(hi, lo), at(hi, hi)};
      std::sort(mcs.begin(), mcs.end());
      mcs.erase(std::unique(mcs.begin(), mcs.end()), mcs.end());
      break;
    }
    case McPlacement::kRandom:
      NOCMAP_REQUIRE(false,
                     "kRandom needs a seed-drawn MC set; build the Mesh from "
                     "explicit mc_tiles instead");
  }
  return Mesh(n, n, std::move(mcs));
}

Mesh Mesh::stacked_with_placement(std::uint32_t layers, std::uint32_t n,
                                  McPlacement placement, double tsv_hop_cost) {
  Mesh base = square_with_placement(n, placement);
  return Mesh(layers, n, n,
              {base.mc_tiles().begin(), base.mc_tiles().end()},
              tsv_hop_cost);
}

Mesh::Mesh(std::uint32_t rows, std::uint32_t cols, std::vector<TileId> mc_tiles,
           Wraparound wraparound)
    : rows_(rows), cols_(cols), wraparound_(wraparound),
      mc_tiles_(std::move(mc_tiles)) {
  init();
}

Mesh::Mesh(std::uint32_t layers, std::uint32_t rows, std::uint32_t cols,
           std::vector<TileId> mc_tiles, double tsv_hop_cost)
    : layers_(layers), rows_(rows), cols_(cols), tsv_hop_cost_(tsv_hop_cost),
      mc_tiles_(std::move(mc_tiles)) {
  init();
}

void Mesh::init() {
  NOCMAP_REQUIRE(layers_ >= 1 && rows_ >= 1 && cols_ >= 1,
                 "mesh must be non-empty");
  NOCMAP_REQUIRE(!(is_torus() && is_3d()), "torus wraparound is 2D-only");
  NOCMAP_REQUIRE(tsv_hop_cost_ > 0.0, "TSV hop cost must be positive");
  NOCMAP_REQUIRE(!mc_tiles_.empty(), "mesh needs at least one MC tile");
  // Every per-tile loop counts in TileId, so the tile count must fit it;
  // checked in 64 bits, where rows·cols cannot overflow, before allocating.
  const std::uint64_t per_layer = std::uint64_t{rows_} * cols_;
  NOCMAP_REQUIRE(
      per_layer <= std::numeric_limits<TileId>::max() / layers_,
      "mesh has more tiles than a TileId can number");
  const std::size_t n = num_tiles();
  is_mc_.assign(n, 0);
  for (TileId t : mc_tiles_) {
    NOCMAP_REQUIRE(t < n, "MC tile id out of range");
    NOCMAP_REQUIRE(!is_mc_[t], "duplicate MC tile id");
    is_mc_[t] = 1;
  }

  nearest_mc_.assign(n, 0);
  mc_weighted_.assign(n, 0.0);
  for (TileId t = 0; t < n; ++t) {
    double best = std::numeric_limits<double>::max();
    TileId best_mc = mc_tiles_.front();
    for (TileId mc : mc_tiles_) {
      const double d = weighted_hops(t, mc);
      if (d < best || (d == best && mc < best_mc)) {
        best = d;
        best_mc = mc;
      }
    }
    nearest_mc_[t] = best_mc;
    mc_weighted_[t] = best;
  }
}

std::size_t Mesh::num_directed_links() const {
  const std::size_t r = rows_;
  const std::size_t c = cols_;
  const std::size_t l = layers_;
  std::size_t undirected = (r * (c - 1) + c * (r - 1)) * l + (l - 1) * r * c;
  if (is_torus()) {
    if (c >= 3) undirected += r;  // one horizontal wrap per row
    if (r >= 3) undirected += c;  // one vertical wrap per column
  }
  return 2 * undirected;
}

TileCoord Mesh::coord_of(TileId t) const {
  NOCMAP_REQUIRE(t < num_tiles(), "tile id out of range");
  const auto per_layer = static_cast<std::uint32_t>(tiles_per_layer());
  const std::uint32_t rem = t % per_layer;
  return {rem / cols_, rem % cols_, t / per_layer};
}

TileId Mesh::tile_at(TileCoord c) const {
  return tile_at(c.layer, c.row, c.col);
}

TileId Mesh::tile_at(std::uint32_t row, std::uint32_t col) const {
  return tile_at(0, row, col);
}

TileId Mesh::tile_at(std::uint32_t layer, std::uint32_t row,
                     std::uint32_t col) const {
  NOCMAP_REQUIRE(layer < layers_ && row < rows_ && col < cols_,
                 "tile coordinate out of range");
  return layer * static_cast<std::uint32_t>(tiles_per_layer()) +
         row * cols_ + col;
}

TileId Mesh::from_paper_number(std::uint32_t k) const {
  NOCMAP_REQUIRE(k >= 1 && k <= num_tiles(), "paper tile number out of range");
  return k - 1;
}

double Mesh::weighted_hops(TileId a, TileId b) const {
  const TileCoord ca = coord_of(a);
  const TileCoord cb = coord_of(b);
  std::uint32_t dr = abs_diff(ca.row, cb.row);
  std::uint32_t dc = abs_diff(ca.col, cb.col);
  if (wraparound_ == Wraparound::kTorus) {
    dr = std::min(dr, rows_ - dr);
    dc = std::min(dc, cols_ - dc);
  }
  return static_cast<double>(dr + dc) +
         tsv_hop_cost_ * abs_diff(ca.layer, cb.layer);
}

double Mesh::avg_hops_to_all(TileId t) const {
  const TileCoord c = coord_of(t);
  // Row, column, and layer contributions are separable under dimension
  // order.
  auto dim_dist = [this](std::uint32_t a, std::uint32_t b,
                         std::uint32_t extent) {
    std::uint32_t d = abs_diff(a, b);
    if (wraparound_ == Wraparound::kTorus) d = std::min(d, extent - d);
    return d;
  };
  std::uint64_t row_sum = 0;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    row_sum += dim_dist(c.row, r, rows_);
  }
  std::uint64_t col_sum = 0;
  for (std::uint32_t cc = 0; cc < cols_; ++cc) {
    col_sum += dim_dist(c.col, cc, cols_);
  }
  std::uint64_t layer_sum = 0;
  for (std::uint32_t l = 0; l < layers_; ++l) {
    layer_sum += abs_diff(c.layer, l);
  }
  const double total =
      static_cast<double>(row_sum) * cols_ * layers_ +
      static_cast<double>(col_sum) * rows_ * layers_ +
      static_cast<double>(layer_sum) *
          static_cast<double>(tiles_per_layer());
  return total / static_cast<double>(num_tiles());
}

double Mesh::avg_weighted_hops_to_all(TileId t) const {
  if (layers_ == 1) return avg_hops_to_all(t);
  const TileCoord c = coord_of(t);
  std::uint64_t layer_sum = 0;
  for (std::uint32_t l = 0; l < layers_; ++l) {
    layer_sum += abs_diff(c.layer, l);
  }
  // Reuse the unweighted separable sums, then swap the layer term's unit
  // cost for the TSV cost.
  const double unweighted_total =
      avg_hops_to_all(t) * static_cast<double>(num_tiles());
  const double layer_total =
      static_cast<double>(layer_sum) * static_cast<double>(tiles_per_layer());
  return (unweighted_total + (tsv_hop_cost_ - 1.0) * layer_total) /
         static_cast<double>(num_tiles());
}

double Mesh::weighted_hops_to_nearest_mc(TileId t) const {
  NOCMAP_REQUIRE(t < num_tiles(), "tile id out of range");
  return mc_weighted_[t];
}

TileId Mesh::nearest_mc(TileId t) const {
  NOCMAP_REQUIRE(t < num_tiles(), "tile id out of range");
  return nearest_mc_[t];
}

bool Mesh::is_mc(TileId t) const {
  NOCMAP_REQUIRE(t < num_tiles(), "tile id out of range");
  return is_mc_[t] != 0;
}

std::vector<TreeBranch> multicast_branches(const Mesh& mesh, TileId from,
                                           std::span<const TileId> dests) {
  // Group 2*axis is the rising direction along the axis, 2*axis+1 the
  // falling one: East/West, South/North, Up/Down.
  static constexpr std::uint32_t TileCoord::*kAxes[] = {
      &TileCoord::col, &TileCoord::row, &TileCoord::layer};
  const TileCoord here = mesh.coord_of(from);
  std::array<std::vector<TileId>, 6> groups;
  std::array<std::uint32_t, 6> nearest{};
  for (const TileId d : dests) {
    if (d == from) continue;
    const TileCoord c = mesh.coord_of(d);
    std::size_t axis = 0;
    while (c.*kAxes[axis] == here.*kAxes[axis]) ++axis;
    const std::uint32_t v = c.*kAxes[axis];
    const bool falling = v < here.*kAxes[axis];
    const std::size_t g = 2 * axis + (falling ? 1 : 0);
    if (groups[g].empty() || (falling ? v > nearest[g] : v < nearest[g])) {
      nearest[g] = v;
    }
    groups[g].push_back(d);
  }
  std::vector<TreeBranch> branches;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    // The endpoint keeps this tile's coordinates in the dimensions the
    // group has not diverged in yet.
    TileCoord point = here;
    point.*kAxes[g / 2] = nearest[g];
    branches.push_back({mesh.tile_at(point), std::move(groups[g])});
  }
  return branches;
}

}  // namespace nocmap
