#include "topology/mesh.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace nocmap {
namespace {

TEST(Mesh, SquareBasics) {
  const Mesh m = Mesh::square(8);
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.num_tiles(), 64u);
}

TEST(Mesh, TooSmallThrows) { EXPECT_THROW(Mesh::square(1), Error); }

// Shapes whose tile count does not fit TileId are refused before anything
// is allocated, including one whose rows·cols·layers overflows 64 bits.
TEST(Mesh, TileCountBeyondTileIdRefused) {
  EXPECT_THROW(Mesh::square(65536), Error);
  EXPECT_THROW(Mesh::square(70000), Error);
  EXPECT_THROW(Mesh(2, 65536, 32768, {0}), Error);
  constexpr std::uint32_t kHuge = 0xffffffffu;
  EXPECT_THROW(Mesh(kHuge, kHuge, kHuge, {0}), Error);
}

TEST(Mesh, MeshSideOptionBounded) {
  EXPECT_EQ(parse_mesh_side("2", "--mesh"), 2u);
  EXPECT_EQ(parse_mesh_side("64", "--mesh"), kMaxMeshSide);
  for (const char* bad : {"0", "1", "65", "70000", "-8", "8x"}) {
    try {
      parse_mesh_side(bad, "--mesh");
      ADD_FAILURE() << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--mesh"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Mesh, CoordinateRoundTrip) {
  const Mesh m = Mesh::square(8);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    EXPECT_EQ(m.tile_at(m.coord_of(t)), t);
  }
}

// Paper eq. 1 worked example: "the 29-th tile in Figure 1 (where n = 8) is
// located at the fourth row (from the top), fifth column (from the left)".
TEST(Mesh, PaperNumberingExample) {
  const Mesh m = Mesh::square(8);
  const TileId t = m.from_paper_number(29);
  const TileCoord c = m.coord_of(t);
  EXPECT_EQ(c.row, 3u);  // fourth row, 0-based
  EXPECT_EQ(c.col, 4u);  // fifth column, 0-based
  EXPECT_EQ(m.paper_number(t), 29u);
}

TEST(Mesh, PaperNumberRangeChecked) {
  const Mesh m = Mesh::square(4);
  EXPECT_THROW(m.from_paper_number(0), Error);
  EXPECT_THROW(m.from_paper_number(17), Error);
}

TEST(Mesh, HopsIsManhattanDistance) {
  const Mesh m = Mesh::square(8);
  EXPECT_EQ(m.weighted_hops(m.tile_at(0, 0), m.tile_at(0, 0)), 0.0);
  EXPECT_EQ(m.weighted_hops(m.tile_at(0, 0), m.tile_at(7, 7)), 14.0);
  EXPECT_EQ(m.weighted_hops(m.tile_at(3, 4), m.tile_at(5, 1)), 5.0);
}

TEST(Mesh, HopsIsSymmetric) {
  const Mesh m = Mesh::square(5);
  for (TileId a = 0; a < m.num_tiles(); ++a) {
    for (TileId b = 0; b < m.num_tiles(); ++b) {
      EXPECT_EQ(m.weighted_hops(a, b), m.weighted_hops(b, a));
    }
  }
}

// Paper Section II.C anchors: on an 8x8 mesh, HC_1 = 7 for corner tile 1 and
// HC_28 = 4 for central tile 28 (paper numbering).
TEST(Mesh, AvgHopsPaperAnchors) {
  const Mesh m = Mesh::square(8);
  EXPECT_DOUBLE_EQ(m.avg_weighted_hops_to_all(m.from_paper_number(1)), 7.0);
  EXPECT_DOUBLE_EQ(m.avg_weighted_hops_to_all(m.from_paper_number(28)), 4.0);
}

TEST(Mesh, AvgHopsMatchesDirectSum) {
  const Mesh m = Mesh::square(6);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    double direct = 0.0;
    for (TileId u = 0; u < m.num_tiles(); ++u) {
      direct += m.weighted_hops(t, u);
    }
    direct /= static_cast<double>(m.num_tiles());
    EXPECT_DOUBLE_EQ(m.avg_weighted_hops_to_all(t), direct);
  }
}

TEST(Mesh, AvgHopsCenterSmallerThanCorner) {
  const Mesh m = Mesh::square(8);
  const double corner = m.avg_weighted_hops_to_all(m.tile_at(0, 0));
  const double center = m.avg_weighted_hops_to_all(m.tile_at(3, 3));
  EXPECT_LT(center, corner);
}

TEST(Mesh, CornerMcPlacement) {
  const Mesh m = Mesh::square(8);
  ASSERT_EQ(m.mc_tiles().size(), 4u);
  EXPECT_TRUE(m.is_mc(m.tile_at(0, 0)));
  EXPECT_TRUE(m.is_mc(m.tile_at(0, 7)));
  EXPECT_TRUE(m.is_mc(m.tile_at(7, 0)));
  EXPECT_TRUE(m.is_mc(m.tile_at(7, 7)));
  EXPECT_FALSE(m.is_mc(m.tile_at(3, 3)));
}

// Paper eq. 4: HM_k = min(i-1, n-i) + min(j-1, n-j) with 1-based i, j.
TEST(Mesh, NearestMcMatchesQuadrantFormula) {
  const Mesh m = Mesh::square(8);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    const TileCoord c = m.coord_of(t);
    const std::uint32_t i = c.row + 1;
    const std::uint32_t j = c.col + 1;
    const double expected = std::min(i - 1, 8 - i) + std::min(j - 1, 8 - j);
    EXPECT_EQ(m.weighted_hops_to_nearest_mc(t), expected) << "tile " << t;
  }
}

TEST(Mesh, NearestMcIsConsistentWithDistance) {
  const Mesh m = Mesh::square(8);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    EXPECT_EQ(m.weighted_hops(t, m.nearest_mc(t)),
              m.weighted_hops_to_nearest_mc(t));
    EXPECT_TRUE(m.is_mc(m.nearest_mc(t)));
  }
}

TEST(Mesh, McTileHasZeroMcDistance) {
  const Mesh m = Mesh::square(8);
  for (TileId mc : m.mc_tiles()) {
    EXPECT_EQ(m.weighted_hops_to_nearest_mc(mc), 0.0);
    EXPECT_EQ(m.nearest_mc(mc), mc);
  }
}

TEST(Mesh, EdgeMiddlePlacement) {
  const Mesh m = Mesh::square_with_placement(8, McPlacement::kEdgeMiddles);
  EXPECT_EQ(m.mc_tiles().size(), 4u);
  EXPECT_TRUE(m.is_mc(m.tile_at(0, 4)));
  EXPECT_TRUE(m.is_mc(m.tile_at(4, 0)));
  EXPECT_TRUE(m.is_mc(m.tile_at(4, 7)));
  EXPECT_TRUE(m.is_mc(m.tile_at(7, 4)));
}

TEST(Mesh, DiamondPlacementCenter) {
  const Mesh even = Mesh::square_with_placement(8, McPlacement::kDiamond);
  EXPECT_EQ(even.mc_tiles().size(), 4u);
  EXPECT_TRUE(even.is_mc(even.tile_at(3, 3)));
  EXPECT_TRUE(even.is_mc(even.tile_at(4, 4)));

  const Mesh odd = Mesh::square_with_placement(5, McPlacement::kDiamond);
  EXPECT_EQ(odd.mc_tiles().size(), 1u);  // degenerate center
  EXPECT_TRUE(odd.is_mc(odd.tile_at(2, 2)));
}

TEST(Torus, WraparoundShortensHops) {
  const Mesh torus = Mesh::square_torus(8);
  EXPECT_TRUE(torus.is_torus());
  // Opposite corners are 2 hops apart on a torus (1 wrap per dimension).
  EXPECT_EQ(torus.weighted_hops(torus.tile_at(0, 0), torus.tile_at(7, 7)),
            2.0);
  EXPECT_EQ(torus.weighted_hops(torus.tile_at(0, 0), torus.tile_at(0, 4)),
            4.0);
  EXPECT_EQ(torus.weighted_hops(torus.tile_at(0, 0), torus.tile_at(0, 5)),
            3.0);
}

TEST(Torus, HopsNeverExceedMesh) {
  const Mesh mesh = Mesh::square(6);
  const Mesh torus = Mesh::square_torus(6);
  for (TileId a = 0; a < 36; ++a) {
    for (TileId b = 0; b < 36; ++b) {
      EXPECT_LE(torus.weighted_hops(a, b), mesh.weighted_hops(a, b));
    }
  }
}

TEST(Torus, UniformAverageHops) {
  // Vertex-transitive: every tile has the same average distance, so the
  // cache-latency imbalance the paper balances does not exist on a torus.
  const Mesh torus = Mesh::square_torus(8);
  const double reference = torus.avg_weighted_hops_to_all(0);
  for (TileId t = 1; t < torus.num_tiles(); ++t) {
    EXPECT_DOUBLE_EQ(torus.avg_weighted_hops_to_all(t), reference);
  }
  // 8x8 torus: per-dimension average min(d, 8-d) over d=0..7 is
  // (0+1+2+3+4+3+2+1)/8 = 2; two dimensions -> 4 hops.
  EXPECT_DOUBLE_EQ(reference, 4.0);
}

TEST(Torus, AvgHopsMatchesDirectSum) {
  const Mesh torus = Mesh::square_torus(5);
  for (TileId t = 0; t < torus.num_tiles(); ++t) {
    double direct = 0.0;
    for (TileId u = 0; u < torus.num_tiles(); ++u) {
      direct += torus.weighted_hops(t, u);
    }
    direct /= static_cast<double>(torus.num_tiles());
    EXPECT_DOUBLE_EQ(torus.avg_weighted_hops_to_all(t), direct);
  }
}

TEST(Torus, MeshIsNotTorus) { EXPECT_FALSE(Mesh::square(4).is_torus()); }

TEST(Mesh, RectangularMesh) {
  const Mesh m(2, 3, {0});
  EXPECT_EQ(m.num_tiles(), 6u);
  EXPECT_EQ(m.weighted_hops(m.tile_at(0, 0), m.tile_at(1, 2)), 3.0);
}

TEST(Mesh, InvalidMcRejected) {
  EXPECT_THROW(Mesh(2, 2, {}), Error);
  EXPECT_THROW(Mesh(2, 2, {4}), Error);
}

TEST(Mesh, OutOfRangeAccessors) {
  const Mesh m = Mesh::square(2);
  EXPECT_THROW(m.coord_of(4), Error);
  EXPECT_THROW(m.tile_at(2, 0), Error);
  EXPECT_THROW(m.is_mc(4), Error);
}

// Regression: the ctor used to accept duplicate MC tile ids silently, which
// double-counted that controller in every mc_tiles() loop (interleaved TM,
// multicast trees, conservation accounting).
TEST(Mesh, DuplicateMcRejected) {
  EXPECT_THROW(Mesh(2, 2, {0, 0}), Error);
  EXPECT_THROW(Mesh(3, 3, {2, 5, 2}), Error);
  EXPECT_THROW(Mesh(2, 2, 2, {1, 1}), Error);
}

// Nearest-MC ties break toward the lowest MC tile id — on non-square
// meshes and arbitrary MC sets, not just the corner layout.
TEST(Mesh, NearestMcTieBreaksToLowestId) {
  // 4x4, MCs in row 0 at columns 0 and 2: column 1 is equidistant.
  const Mesh m(4, 4, {0, 2});
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(m.nearest_mc(m.tile_at(r, 1)), 0u) << "row " << r;
  }
  // 3x5 rectangular, MCs at (0,4)=4 and (2,0)=10: tile (1,2)=7 is 3 hops
  // from both.
  const Mesh rect(3, 5, {4, 10});
  EXPECT_EQ(rect.weighted_hops(7, 4), rect.weighted_hops(7, 10));
  EXPECT_EQ(rect.nearest_mc(7), 4u);
}

TEST(Mesh, NearestMcBruteForceOnGenericSet) {
  const Mesh m(5, 7, {3, 11, 20, 33});
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    TileId best = m.mc_tiles()[0];
    for (TileId mc : m.mc_tiles()) {
      if (m.weighted_hops(t, mc) < m.weighted_hops(t, best) ||
          (m.weighted_hops(t, mc) == m.weighted_hops(t, best) && mc < best)) {
        best = mc;
      }
    }
    EXPECT_EQ(m.nearest_mc(t), best) << "tile " << t;
    EXPECT_EQ(m.weighted_hops_to_nearest_mc(t), m.weighted_hops(t, best))
        << "tile " << t;
  }
}

TEST(Mesh3D, CoordinateRoundTrip) {
  const Mesh m(3, 4, 5, {0});
  EXPECT_TRUE(m.is_3d());
  EXPECT_EQ(m.num_tiles(), 60u);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    const TileCoord c = m.coord_of(t);
    EXPECT_EQ(m.tile_at(c), t);
    EXPECT_EQ(m.tile_at(c.layer, c.row, c.col), t);
    EXPECT_EQ(t, c.layer * 20u + c.row * 5u + c.col);  // layer-major layout
  }
}

TEST(Mesh3D, HopsIsManhattanAcrossLayers) {
  const Mesh m(3, 4, 4, {0});
  EXPECT_EQ(m.weighted_hops(m.tile_at(0u, 0u, 0u), m.tile_at(2u, 3u, 1u)),
            6.0);
  for (TileId a = 0; a < m.num_tiles(); ++a) {
    for (TileId b = 0; b < m.num_tiles(); ++b) {
      const TileCoord ca = m.coord_of(a), cb = m.coord_of(b);
      const double manhattan =
          (ca.row > cb.row ? ca.row - cb.row : cb.row - ca.row) +
          (ca.col > cb.col ? ca.col - cb.col : cb.col - ca.col) +
          (ca.layer > cb.layer ? ca.layer - cb.layer : cb.layer - ca.layer);
      EXPECT_EQ(m.weighted_hops(a, b), manhattan);
      EXPECT_EQ(m.weighted_hops(a, b), m.weighted_hops(b, a));
    }
  }
}

TEST(Mesh3D, Layer0MatchesPlanarIds) {
  // Layer 0 of a stack uses the same ids and distances as the 2D mesh.
  const Mesh flat = Mesh::square(4);
  const Mesh stack(2, 4, 4, {0, 3, 12, 15});
  for (TileId a = 0; a < flat.num_tiles(); ++a) {
    EXPECT_EQ(stack.coord_of(a).layer, 0u);
    for (TileId b = 0; b < flat.num_tiles(); ++b) {
      EXPECT_EQ(stack.weighted_hops(a, b), flat.weighted_hops(a, b));
    }
  }
}

TEST(Mesh3D, WeightedHopsUsesTsvCost) {
  const Mesh m(2, 4, 4, {0}, /*tsv_hop_cost=*/0.5);
  EXPECT_DOUBLE_EQ(m.tsv_hop_cost(), 0.5);
  const TileId below = m.tile_at(0u, 1u, 2u);
  const TileId above = m.tile_at(1u, 1u, 2u);
  EXPECT_DOUBLE_EQ(m.weighted_hops(below, above), 0.5);
  // At unit TSV cost a vertical hop is one hop.
  EXPECT_DOUBLE_EQ(Mesh(2, 4, 4, {0}).weighted_hops(below, above), 1.0);
  EXPECT_DOUBLE_EQ(m.weighted_hops(0, m.tile_at(1u, 2u, 3u)), 5.5);
  // On a 2D mesh the weighted distance degenerates to the hop count.
  const Mesh flat = Mesh::square(4);
  EXPECT_DOUBLE_EQ(flat.weighted_hops(0, 15), 6.0);
}

TEST(Mesh3D, AvgWeightedHopsMatchesDirectSum) {
  const Mesh m(2, 3, 4, {0}, /*tsv_hop_cost=*/1.5);
  for (TileId t = 0; t < m.num_tiles(); ++t) {
    double direct = 0.0;
    for (TileId u = 0; u < m.num_tiles(); ++u) {
      direct += m.weighted_hops(t, u);
    }
    direct /= static_cast<double>(m.num_tiles());
    EXPECT_DOUBLE_EQ(m.avg_weighted_hops_to_all(t), direct);
  }
}

TEST(Mesh3D, NearestMcUsesWeightedDistance) {
  // MC 0 at layer-0 corner, MC 21 at (layer 1, row 1, col 1). With cheap
  // TSVs the upper layer belongs to the upper MC even where plain hop
  // counts would tie.
  const Mesh m(2, 4, 4, {0, 21}, /*tsv_hop_cost=*/0.25);
  const TileId probe = m.tile_at(1u, 2u, 2u);  // 2 planar hops from MC 21
  EXPECT_EQ(m.nearest_mc(probe), 21u);
  EXPECT_DOUBLE_EQ(m.weighted_hops_to_nearest_mc(probe), 2.0);
  // A layer-0 tile right under MC 21 pays only the TSV to reach it.
  const TileId under = m.tile_at(0u, 1u, 1u);
  EXPECT_EQ(m.nearest_mc(under), 21u);
  EXPECT_DOUBLE_EQ(m.weighted_hops_to_nearest_mc(under), 0.25);
}

TEST(Mesh3D, StackedWithPlacementPutsMcsOnBaseDie) {
  const Mesh m = Mesh::stacked_with_placement(4, 8, McPlacement::kCorners);
  EXPECT_EQ(m.layers(), 4u);
  EXPECT_EQ(m.num_tiles(), 256u);
  ASSERT_EQ(m.mc_tiles().size(), 4u);
  for (TileId mc : m.mc_tiles()) {
    EXPECT_EQ(m.coord_of(mc).layer, 0u);
  }
  EXPECT_THROW(
      Mesh::stacked_with_placement(2, 4, McPlacement::kRandom), Error);
  EXPECT_THROW(
      Mesh::square_with_placement(4, McPlacement::kRandom), Error);
}

TEST(Mesh3D, InvalidStackRejected) {
  EXPECT_THROW(Mesh(0, 4, 4, {0}), Error);            // no layers
  EXPECT_THROW(Mesh(2, 4, 4, {0}, 0.0), Error);       // non-positive TSV cost
  EXPECT_THROW(Mesh(2, 4, 4, {0}, -1.0), Error);      // negative TSV cost
  EXPECT_THROW(Mesh(2, 4, 4, {32}), Error);           // MC id out of range
}

TEST(Mesh, PlacementNameRoundTrip) {
  for (const McPlacement p :
       {McPlacement::kCorners, McPlacement::kEdgeMiddles, McPlacement::kDiamond,
        McPlacement::kRandom}) {
    McPlacement parsed{};
    ASSERT_TRUE(mc_placement_from_name(mc_placement_name(p), parsed));
    EXPECT_EQ(parsed, p);
  }
  McPlacement ignored{};
  EXPECT_FALSE(mc_placement_from_name("nonsense", ignored));
}

}  // namespace
}  // namespace nocmap
