// Mesh topology for tile-based CMPs (paper Section II.B–C), generalized to
// 3D stacked meshes and arbitrary MC sets.
//
// Tiles are identified by 0-based TileId internally; the paper's 1-based
// numbering k = (i-1)*n + j (eq. 1, row i from top, column j from left) is
// exposed via paper_number()/from_paper_number() so bench output matches the
// paper's grids exactly. A stacked mesh extends the layout layer-major:
// id = layer*(rows*cols) + row*cols + col, so layer 0 of a 3D mesh uses the
// same ids as the equivalent 2D mesh.
//
// Routing is dimension-order (XY on a planar mesh, XYZ on a stack), so the
// hop count between two tiles is the Manhattan distance across all
// dimensions. Vertical (through-silicon-via) hops may be cheaper or dearer
// than planar hops; `tsv_hop_cost` expresses a TSV traversal in units of
// planar hops and feeds the weighted distances used by the latency model.
//
// Memory-controller placement is a property of the mesh; the paper places
// one MC in each of the four corners of a 2D mesh and forwards memory
// requests to the nearest MC (the "proximity principle", which on a square
// mesh with corner MCs is exactly the quadrant rule of eq. 4). With an
// arbitrary MC set the same rule becomes a nearest-MC Voronoi partition over
// weighted distance, ties broken toward the lowest MC tile id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace nocmap {

using TileId = std::uint32_t;

/// Largest mesh side that scenario files, sweep specs and the command-line
/// tools accept (4,096 tiles per layer).
inline constexpr std::uint32_t kMaxMeshSide = 64;

/// Parses a mesh-side option: a whole number in [2, kMaxMeshSide]. Anything
/// else throws Error naming `what`, the option the text came from.
std::uint32_t parse_mesh_side(std::string_view text, std::string_view what);

/// Row/column(/layer) coordinate, 0-based, row 0 at the top, layer 0 at the
/// bottom of the stack. `layer` is last so 2D aggregate initializers
/// `{row, col}` keep meaning layer 0.
struct TileCoord {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  std::uint32_t layer = 0;

  friend bool operator==(const TileCoord&, const TileCoord&) = default;
};

/// Built-in memory-controller placement schemes. On a stacked mesh the
/// scheme places its MCs on layer 0 (the base die next to the package).
enum class McPlacement {
  kCorners,      ///< one MC per corner (the paper's layout)
  kEdgeMiddles,  ///< one MC at the middle of each edge
  kDiamond,      ///< four MCs around the mesh center
  kRandom,       ///< seed-drawn arbitrary MC set (scenario/sweep layer only;
                 ///< square_with_placement rejects it — it needs a seed)
};

/// Scheme name used by scenario repro files and sweep specs.
const char* mc_placement_name(McPlacement placement);

/// Parses a scheme name; returns false (and leaves `out` untouched) for an
/// unknown name.
bool mc_placement_from_name(const std::string& name, McPlacement& out);

/// Link arrangement: a plain mesh, or a torus with wraparound links in
/// both planar dimensions. The torus is an analytic extension (hop counts
/// use the shorter way around) and stays 2D-only; the cycle-level simulator
/// models meshes (planar or stacked) only.
enum class Wraparound : std::uint8_t { kNone, kTorus };

/// A layers × rows × cols mesh (or 2D torus) with dimension-order routing
/// and a set of MC tiles.
class Mesh {
 public:
  /// Square n×n mesh with the paper's corner MCs.
  static Mesh square(std::uint32_t n);

  /// Square n×n torus with the same corner MCs (extension; see ext_torus).
  static Mesh square_torus(std::uint32_t n);

  /// General 2D constructor. `mc_tiles` must be non-empty and free of
  /// duplicates (TM computation requires ≥1 MC; duplicates would silently
  /// double-count in every loop over mc_tiles()). Every constructor refuses,
  /// before allocating, a shape whose tile count does not fit TileId.
  Mesh(std::uint32_t rows, std::uint32_t cols, std::vector<TileId> mc_tiles,
       Wraparound wraparound = Wraparound::kNone);

  /// General stacked constructor: `layers` dies of rows × cols tiles each.
  /// `tsv_hop_cost` weighs one vertical hop in units of planar hops (must
  /// be positive). Stacking excludes wraparound.
  Mesh(std::uint32_t layers, std::uint32_t rows, std::uint32_t cols,
       std::vector<TileId> mc_tiles, double tsv_hop_cost = 1.0);

  /// Square mesh with a named placement scheme (kRandom is rejected).
  static Mesh square_with_placement(std::uint32_t n, McPlacement placement);

  /// Stacked layers × n × n mesh with a named placement scheme applied to
  /// layer 0 (kRandom is rejected).
  static Mesh stacked_with_placement(std::uint32_t layers, std::uint32_t n,
                                     McPlacement placement,
                                     double tsv_hop_cost = 1.0);

  bool is_torus() const { return wraparound_ == Wraparound::kTorus; }
  bool is_3d() const { return layers_ > 1; }

  std::uint32_t layers() const { return layers_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::size_t tiles_per_layer() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  std::size_t num_tiles() const { return tiles_per_layer() * layers_; }

  /// Cost of one vertical hop in units of planar hops (1.0 on a 2D mesh).
  double tsv_hop_cost() const { return tsv_hop_cost_; }

  /// Directed inter-router links: each adjacent tile pair (planar
  /// neighbours per layer, plus one TSV per tile position between adjacent
  /// layers) contributes one link per direction. Torus wrap links only
  /// count where the wrapped dimension has >= 3 tiles: at width 2 the wrap
  /// connects the same two tiles as the existing mesh link, and at width 1
  /// it is a self-loop.
  std::size_t num_directed_links() const;

  TileCoord coord_of(TileId t) const;
  TileId tile_at(TileCoord c) const;
  TileId tile_at(std::uint32_t row, std::uint32_t col) const;
  TileId tile_at(std::uint32_t layer, std::uint32_t row,
                 std::uint32_t col) const;

  /// Paper's 1-based tile number (eq. 1).
  std::uint32_t paper_number(TileId t) const { return t + 1; }
  TileId from_paper_number(std::uint32_t k) const;

  /// Distance under dimension-order routing with vertical hops weighted by
  /// tsv_hop_cost(): planar_hops + tsv_hop_cost * layer_hops. On a 2D mesh
  /// or torus, and on a stack with unit TSV cost, it is the hop count: the
  /// Manhattan distance across row, column and layer.
  double weighted_hops(TileId a, TileId b) const;

  /// Average weighted_hops() from `t` to all tiles including itself — the
  /// paper's HC_k (eq. 3) and its 3D generalization: the expected distance
  /// of a cache packet whose bank is uniformly address-hashed over all N
  /// tiles.
  double avg_weighted_hops_to_all(TileId t) const;

  /// Weighted distance from `t` to its nearest memory controller — the
  /// paper's HM_k, generalized. For a square mesh with corner MCs this
  /// equals eq. 4. "Nearest" is by weighted distance, ties toward the
  /// lowest MC id.
  double weighted_hops_to_nearest_mc(TileId t) const;

  /// The nearest MC tile itself (weighted distance, ties broken toward the
  /// lowest TileId); needed by the network simulator to pick a concrete
  /// destination.
  TileId nearest_mc(TileId t) const;

  std::span<const TileId> mc_tiles() const { return mc_tiles_; }
  bool is_mc(TileId t) const;

 private:
  void init();
  /// Unweighted average hop count from `t` to all tiles (the planar HC_k);
  /// avg_weighted_hops_to_all adds the TSV term on a stack.
  double avg_hops_to_all(TileId t) const;

  std::uint32_t layers_ = 1;
  std::uint32_t rows_;
  std::uint32_t cols_;
  Wraparound wraparound_ = Wraparound::kNone;
  double tsv_hop_cost_ = 1.0;
  std::vector<TileId> mc_tiles_;
  std::vector<std::uint8_t> is_mc_;         // indexed by TileId
  std::vector<TileId> nearest_mc_;          // precomputed per tile
  std::vector<double> mc_weighted_;         // weighted hops to nearest_mc_[t]
};

/// One branch of a dimension-order multicast tree: the unicast segment from
/// the current tile to `endpoint`, and the destinations reached through it.
struct TreeBranch {
  TileId endpoint = 0;
  std::vector<TileId> dests;
};

/// One level of the XYZ multicast tree rooted at `from`. Destinations are
/// grouped by their first dimension-order hop; each group's endpoint is the
/// point where its shared path prefix ends (the group's nearest coordinate
/// along that hop's dimension), so recursing from every endpoint rebuilds
/// the whole tree. Branches come in East, West, South, North, Up, Down
/// order, empty groups omitted. A destination equal to `from` is delivered
/// here and belongs to no branch.
std::vector<TreeBranch> multicast_branches(const Mesh& mesh, TileId from,
                                           std::span<const TileId> dests);

}  // namespace nocmap
