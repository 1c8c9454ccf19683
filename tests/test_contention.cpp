#include "core/contention.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/global_mapper.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 41));
}

/// Hand-checkable instance: one thread with memory traffic only, rest idle.
ObmProblem single_flow_problem(double memory_rate) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "one";
  a.threads = {{0.0, memory_rate}};
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    Workload({a}).padded_to(16));
}

TEST(Contention, SingleFlowLoadsExactPath) {
  // Thread on tile (1,1); nearest MC is the (0,0) corner. XY path:
  // (1,1) -> (1,0) -> (0,0). Request 1 flit + reply 5 flits, rate 1000/kc
  // = 1 req/cycle.
  const ObmProblem p = single_flow_problem(1000.0);
  const Mesh& mesh = p.mesh();
  Mapping m = p.identity_mapping();
  std::swap(m.thread_to_tile[0], m.thread_to_tile[5]);  // thread 0 -> (1,1)
  const ContentionModel model(p, m);

  const TileId t11 = mesh.tile_at(1, 1);
  const TileId t10 = mesh.tile_at(1, 0);
  const TileId t00 = mesh.tile_at(0, 0);
  EXPECT_NEAR(model.link_load(t11, t10), 1.0, 1e-12);  // request leg 1
  EXPECT_NEAR(model.link_load(t10, t00), 1.0, 1e-12);  // request leg 2
  // Reply path (0,0) -> (0,1) -> (1,1): 5 flits/cycle.
  EXPECT_NEAR(model.link_load(t00, mesh.tile_at(0, 1)), 5.0, 1e-12);
  EXPECT_NEAR(model.link_load(mesh.tile_at(0, 1), t11), 5.0, 1e-12);
  // Unrelated link untouched.
  EXPECT_NEAR(model.link_load(mesh.tile_at(3, 3), mesh.tile_at(3, 2)), 0.0,
              1e-12);
}

TEST(Contention, RepliesCanBeExcluded) {
  const ObmProblem p = single_flow_problem(1000.0);
  Mapping m = p.identity_mapping();
  const ContentionModel model(p, m);
  // Thread 0 sits on tile 0 == the MC corner: its request and its reply
  // both have src == dst, so no link carries any load.
  EXPECT_NEAR(model.total_flit_hops(), 0.0, 1e-12);
}

TEST(Contention, FlitHopConservation) {
  // Total link load must equal sum over flows of rate x flits x hops.
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const ContentionModel model(p, m);

  const Mesh& mesh = p.mesh();
  const auto n = static_cast<double>(p.num_tiles());
  double expected = 0.0;
  for (std::size_t j = 0; j < p.num_threads(); ++j) {
    const ThreadProfile& t = p.workload().thread(j);
    const TileId s = m.tile_of(j);
    for (TileId d = 0; d < p.num_tiles(); ++d) {
      const double hops = mesh.weighted_hops(s, d);
      expected += t.cache_rate / 1000.0 / n *
                  (kShortPacketFlits + kLongPacketFlits) * hops;
    }
    expected += t.memory_rate / 1000.0 *
                (kShortPacketFlits + kLongPacketFlits) *
                mesh.weighted_hops(s, mesh.nearest_mc(s));
  }
  EXPECT_NEAR(model.total_flit_hops(), expected, 1e-9);
}

TEST(Contention, LoadScalesLinearly) {
  const ObmProblem p = c1_problem();
  const Mapping m = p.identity_mapping();
  const ContentionModel m1(p, m);
  const ContentionModel m2(p, m, 3.0);
  EXPECT_NEAR(m2.max_utilization(), 3.0 * m1.max_utilization(), 1e-9);
  EXPECT_NEAR(m2.total_flit_hops(), 3.0 * m1.total_flit_hops(), 1e-9);
  EXPECT_NEAR(m1.saturation_scale(), 3.0 * m2.saturation_scale(), 1e-9);
}

TEST(Contention, QueueDelayProperties) {
  EXPECT_DOUBLE_EQ(ContentionModel::queue_delay(0.0), 0.0);
  EXPECT_NEAR(ContentionModel::queue_delay(0.5), 0.5, 1e-12);
  EXPECT_LT(ContentionModel::queue_delay(0.3),
            ContentionModel::queue_delay(0.6));
  // Clamped near capacity: finite.
  EXPECT_LT(ContentionModel::queue_delay(5.0), 1000.0);
}

TEST(Contention, MeanBelowMax) {
  const ObmProblem p = c1_problem();
  const Mapping m = p.identity_mapping();
  const ContentionModel model(p, m);
  EXPECT_LE(model.mean_utilization(), model.max_utilization() + 1e-12);
  EXPECT_GT(model.max_utilization(), 0.0);
}

// The model must predict the simulator: td_q estimate within the right
// order of magnitude at paper loads, and the saturation knee near the
// predicted scale.
TEST(Contention, PredictsMeasuredQueuingOrderOfMagnitude) {
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const ContentionModel model(p, m);

  SimConfig cfg;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 30000;
  const SimResult r = run_simulation(p, m, cfg);
  const double measured = r.activity.avg_queue_wait();
  const double predicted = model.predicted_td_q();
  EXPECT_GT(predicted, measured * 0.2);
  EXPECT_LT(predicted, measured * 5.0 + 0.2);
}

TEST(Contention, SaturationScaleBracketsSimulatedKnee) {
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const double predicted = ContentionModel(p, m).saturation_scale();

  // Below half the predicted scale the network must still be fluid; well
  // above it, clearly saturated (latency an order of magnitude up).
  auto g_apl_at = [&](double scale) {
    SimConfig cfg;
    cfg.warmup_cycles = 2000;
    cfg.measure_cycles = 15000;
    cfg.traffic.injection_scale = scale;
    return run_simulation(p, m, cfg).g_apl;
  };
  const double fluid = g_apl_at(predicted * 0.4);
  const double saturated = g_apl_at(predicted * 3.0);
  EXPECT_LT(fluid, 60.0);
  EXPECT_GT(saturated, 3.0 * fluid);
}

// --- Multicast trees --------------------------------------------------------

/// Every tile runs one C1 thread, so every tile roots a multicast tree.
ObmProblem multicast_problem(const Mesh& mesh) {
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  return ObmProblem(
      TileLatencyModel(mesh, LatencyParams{}, MemoryTrafficMode::kMulticast),
      synthesize_workload(parsec_config("C1"), 41, opt));
}

/// FNV-1a over the bit patterns of every directed link load: tiles
/// ascending, neighbours east, west, south, north, up, down.
std::uint64_t link_load_digest(const ContentionModel& model,
                               const Mesh& mesh) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (TileId t = 0; t < mesh.num_tiles(); ++t) {
    const TileCoord c = mesh.coord_of(t);
    const TileCoord steps[] = {
        {c.row, c.col + 1, c.layer}, {c.row, c.col - 1, c.layer},
        {c.row + 1, c.col, c.layer}, {c.row - 1, c.col, c.layer},
        {c.row, c.col, c.layer + 1}, {c.row, c.col, c.layer - 1}};
    for (const TileCoord& n : steps) {
      // Unsigned wrap turns a step off the low edge into an out-of-range
      // coordinate, so one bounds check covers both edges.
      if (n.row >= mesh.rows() || n.col >= mesh.cols() ||
          n.layer >= mesh.layers()) {
        continue;
      }
      const auto bits =
          std::bit_cast<std::uint64_t>(model.link_load(t, mesh.tile_at(n)));
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// Bit-exact pins of the multicast tree's link loads. The contention model
// and the traffic engine expand the same tree (multicast_branches), and
// SimMemoryModes.MulticastRunIsPinned pins the simulated side. The 2D chip
// has an irregular MC set; the stack has MCs on both dies, so its trees
// branch up and down as well as across.
TEST(Contention, MulticastTreeLoadsArePinned) {
  struct Pin {
    const char* tag;
    Mesh mesh;
    double total_flit_hops;
    double max_utilization;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"4x4-irregular-mcs", Mesh(4, 4, {1, 6, 11, 12}),
       0x1.d90a1dd7ad076p+0, 0x1.38a7efe4a7a1fp-4, 0xec3ed9f4f6de9a9fULL},
      {"2x4x4-stack", Mesh(2, 4, 4, {0, 5, 19, 30}, 0.5),
       0x1.249ff8a7eca3bp+2, 0x1.4811e4b417d2fp-4, 0xcbf0fd05fa55ba0cULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.tag);
    const ObmProblem p = multicast_problem(pin.mesh);
    const ContentionModel model(p, p.identity_mapping());
    EXPECT_EQ(model.total_flit_hops(), pin.total_flit_hops);
    EXPECT_EQ(model.max_utilization(), pin.max_utilization);
    EXPECT_EQ(link_load_digest(model, p.mesh()), pin.digest);
  }
}

TEST(Contention, InvalidInputsRejected) {
  const ObmProblem p = c1_problem();
  Mapping bad;
  bad.thread_to_tile.assign(p.num_threads(), 0);
  EXPECT_THROW(ContentionModel(p, bad), Error);
  EXPECT_THROW(ContentionModel(p, p.identity_mapping(), 0.0), Error);
}

}  // namespace
}  // namespace nocmap
