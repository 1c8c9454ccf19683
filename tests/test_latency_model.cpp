#include "latency/model.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace nocmap {
namespace {

LatencyParams fig5_params() {
  // The parameters of the paper's Figure-5 worked example.
  return {.td_q = 0.0, .td_s = 1.0};
}

TEST(LatencyParams, PerHop) {
  const LatencyParams p{.td_q = 0.5, .td_s = 2.0};
  EXPECT_DOUBLE_EQ(p.per_hop(), 4.5);
}

// td_q and td_s come from outside (nocmap_cli's --td_q/--td_s): a negative
// or non-finite delay, or one above 10^9 cycles that would overflow the
// model's sums, is refused, naming the parameter; 0 stays legal (the Fig.-5
// anchors use td_q = 0), and so does 10^9.
TEST(TileLatencyModel, RejectsNegativeOrNonFiniteDelays) {
  const Mesh mesh = Mesh::square(4);
  auto error_of = [&](const LatencyParams& p) -> std::string {
    try {
      (void)TileLatencyModel(mesh, p);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e300,
                           1e308}) {
    SCOPED_TRACE(bad);
    EXPECT_NE(error_of({.td_q = bad, .td_s = 1.0}).find("td_q"),
              std::string::npos);
    EXPECT_NE(error_of({.td_q = 0.0, .td_s = bad}).find("td_s"),
              std::string::npos);
  }
  EXPECT_EQ(error_of({.td_q = 0.0, .td_s = 0.0}), "");
  EXPECT_EQ(error_of({.td_q = 1e9, .td_s = 1e9}), "");
}

TEST(TileLatencyModel, TcFormulaOn4x4) {
  // 4x4 mesh, Fig-5 parameters: corner HC = 3.0, edge HC = 2.5,
  // center HC = 2.0; TC = HC*4 + 1*(15/16).
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, fig5_params());
  const double ser = 15.0 / 16.0;
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(0, 0)), 12.0 + ser);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(0, 1)), 10.0 + ser);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(1, 1)), 8.0 + ser);
}

TEST(TileLatencyModel, HcAnchors8x8) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, fig5_params());
  EXPECT_DOUBLE_EQ(model.hc(mesh.from_paper_number(1)), 7.0);
  EXPECT_DOUBLE_EQ(model.hc(mesh.from_paper_number(28)), 4.0);
}

TEST(TileLatencyModel, TmZeroSerializationOnMcTile) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, fig5_params());
  for (TileId mc : mesh.mc_tiles()) {
    EXPECT_DOUBLE_EQ(model.tm(mc), 0.0);  // zero hops, no serialization
  }
}

TEST(TileLatencyModel, TmFormulaForNonMcTiles) {
  const Mesh mesh = Mesh::square(8);
  const LatencyParams p = fig5_params();
  const TileLatencyModel model(mesh, p);
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    if (mesh.is_mc(t)) continue;
    const double expected =
        mesh.weighted_hops_to_nearest_mc(t) * p.per_hop() + p.td_s;
    EXPECT_DOUBLE_EQ(model.tm(t), expected);
  }
}

// The paper's Fig. 3 observation: cache latency is lowest in the center and
// highest in the corners; memory latency is the opposite.
TEST(TileLatencyModel, CacheAndMemoryGradientsOppose) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  const TileId corner = mesh.tile_at(0, 0);
  const TileId center = mesh.tile_at(3, 3);
  EXPECT_GT(model.tc(corner), model.tc(center));
  EXPECT_LT(model.tm(corner), model.tm(center));
}

TEST(TileLatencyModel, SymmetryOfTcUnderMeshSymmetry) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  // 4-fold rotational symmetry: the four corners share one TC value.
  const double c = model.tc(mesh.tile_at(0, 0));
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(0, 7)), c);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(7, 0)), c);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(7, 7)), c);
}

TEST(PacketLatency, Eq2Formula) {
  const Mesh mesh = Mesh::square(8);
  const LatencyParams p = fig5_params();
  const TileId a = mesh.tile_at(0, 0);
  const TileId b = mesh.tile_at(2, 3);
  EXPECT_DOUBLE_EQ(packet_latency(mesh, p, a, b), 5.0 * 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(packet_latency(mesh, p, a, a), 0.0);  // no network
}

// TC(k) must equal the average of eq.-2 packet latencies over all
// destinations (the definition from which the closed form is derived).
TEST(TileLatencyModel, TcEqualsAverageOfPacketLatencies) {
  const Mesh mesh = Mesh::square(5);
  const LatencyParams p{.td_q = 0.25, .td_s = 3.0};
  const TileLatencyModel model(mesh, p);
  for (TileId k = 0; k < mesh.num_tiles(); ++k) {
    double avg = 0.0;
    for (TileId d = 0; d < mesh.num_tiles(); ++d) {
      avg += packet_latency(mesh, p, k, d);
    }
    avg /= static_cast<double>(mesh.num_tiles());
    EXPECT_NEAR(model.tc(k), avg, 1e-12);
  }
}

}  // namespace
}  // namespace nocmap
