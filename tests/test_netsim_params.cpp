// Network micro-architecture parameter sweeps: the simulator must stay
// correct (conservation, drain, latency ordering) across VC counts, buffer
// depths, link latencies and pipeline depths — not just the paper's
// Table-2 point.
#include <gtest/gtest.h>

#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

struct ParamCase {
  std::uint32_t vcs;
  std::uint32_t depth;
  std::uint32_t link_latency;
  std::uint32_t pipeline;
};

std::string case_name(const ::testing::TestParamInfo<ParamCase>& info) {
  const ParamCase& c = info.param;
  return "vc" + std::to_string(c.vcs) + "_d" + std::to_string(c.depth) +
         "_l" + std::to_string(c.link_latency) + "_p" +
         std::to_string(c.pipeline);
}

class NetParamSweep : public ::testing::TestWithParam<ParamCase> {
 protected:
  NetworkConfig config() const {
    const ParamCase& c = GetParam();
    NetworkConfig cfg;
    cfg.vcs_per_port = c.vcs;
    cfg.buffer_depth = c.depth;
    cfg.link_latency = c.link_latency;
    cfg.router_pipeline = c.pipeline;
    return cfg;
  }
};

TEST_P(NetParamSweep, AllToAllConserves) {
  const Mesh mesh = Mesh::square(4);
  Network net(mesh, config());
  PacketId id = 1;
  std::uint64_t flits = 0;
  for (TileId src = 0; src < 16; ++src) {
    for (TileId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      const std::uint32_t f = (src * 3 + dst) % 2 ? 1 : 5;
      PacketInfo p;
      p.id = id++;
      p.src = src;
      p.dst = dst;
      p.flits = f;
      net.inject_packet(p);
      flits += f;
    }
  }
  std::size_t ejected = 0;
  for (Cycle c = 0; c < 100000 && net.packets_in_flight() > 0; ++c) {
    net.step();
    ejected += net.take_ejections().size();
  }
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(ejected, id - 1);
  EXPECT_EQ(net.flits_ejected(), flits);
}

TEST_P(NetParamSweep, UnloadedLatencyMatchesParameters) {
  const Mesh mesh = Mesh::square(4);
  const ParamCase& c = GetParam();
  Network a(mesh, config());
  PacketInfo p;
  p.id = 1;
  p.src = mesh.tile_at(0, 0);
  p.dst = mesh.tile_at(0, 2);
  p.flits = 1;
  a.inject_packet(p);
  Cycle latency = 0;
  for (Cycle cyc = 0; cyc < 1000 && a.packets_in_flight() > 0; ++cyc) {
    a.step();
    for (const auto& e : a.take_ejections()) latency = e.latency();
  }
  // 2 hops: (hops+1) routers x pipeline + hops x link + 1 cycle ejection.
  const Cycle expected = 3 * c.pipeline + 2 * c.link_latency + 1;
  EXPECT_EQ(latency, expected);
}

TEST_P(NetParamSweep, SimulationRunsAndDrains) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "a";
  a.threads.assign(16, ThreadProfile{4.0, 0.5});
  const ObmProblem problem(TileLatencyModel(mesh, LatencyParams{}),
                           Workload({a}));
  SimConfig cfg;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 8000;
  cfg.network = config();
  const SimResult r = run_simulation(problem, problem.identity_mapping(),
                                     cfg);
  EXPECT_FALSE(r.drain_incomplete);
  EXPECT_GT(r.packets_measured, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NetParamSweep,
    ::testing::Values(ParamCase{1, 1, 1, 1}, ParamCase{1, 5, 1, 3},
                      ParamCase{2, 2, 1, 3}, ParamCase{3, 5, 1, 3},
                      ParamCase{3, 5, 2, 3}, ParamCase{4, 8, 1, 2},
                      ParamCase{8, 5, 3, 4}, ParamCase{2, 1, 2, 1}),
    case_name);

// Link counting feeds link_utilization's denominator. Torus wrap links are
// distinct only when the wrapped dimension has >= 3 tiles: at width 2 the
// wrap joins the same two tiles as the existing mesh link (a double-counted
// pair would silently deflate utilization), and at width 1 it would be a
// self-loop.
TEST(NetParams, DirectedLinkCountHandlesDegenerateTorusWidths) {
  // Plain meshes: 2 * (r*(c-1) + c*(r-1)).
  EXPECT_EQ(Mesh(4, 4, {0}).num_directed_links(), 48u);
  EXPECT_EQ(Mesh(2, 4, {0}).num_directed_links(), 20u);
  EXPECT_EQ(Mesh(1, 4, {0}).num_directed_links(), 6u);

  // Full-size torus: one extra wrap per row and per column.
  EXPECT_EQ(Mesh(4, 4, {0}, Wraparound::kTorus).num_directed_links(), 64u);
  EXPECT_EQ(Mesh(3, 3, {0}, Wraparound::kTorus).num_directed_links(), 36u);

  // Degenerate widths: a 2-wide dimension's wrap duplicates an existing
  // link; a 1-wide dimension's wrap is a self-loop. Neither adds links.
  EXPECT_EQ(Mesh(2, 4, {0}, Wraparound::kTorus).num_directed_links(), 24u);
  EXPECT_EQ(Mesh(4, 2, {0}, Wraparound::kTorus).num_directed_links(), 24u);
  EXPECT_EQ(Mesh(2, 2, {0}, Wraparound::kTorus).num_directed_links(), 8u);
  EXPECT_EQ(Mesh(1, 4, {0}, Wraparound::kTorus).num_directed_links(), 8u);
  EXPECT_EQ(Mesh(1, 2, {0}, Wraparound::kTorus).num_directed_links(), 2u);
}

// Deeper buffers / more VCs must not hurt latency under contention.
TEST(NetParams, MoreBuffersHelpUnderLoad) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "hot";
  a.threads.assign(16, ThreadProfile{40.0, 4.0});
  const ObmProblem problem(TileLatencyModel(mesh, LatencyParams{}),
                           Workload({a}));
  auto g_apl_with = [&](std::uint32_t vcs, std::uint32_t depth) {
    SimConfig cfg;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 15000;
    cfg.network.vcs_per_port = vcs;
    cfg.network.buffer_depth = depth;
    return run_simulation(problem, problem.identity_mapping(), cfg).g_apl;
  };
  const double tight = g_apl_with(1, 1);
  const double roomy = g_apl_with(4, 8);
  EXPECT_LT(roomy, tight);
}

}  // namespace
}  // namespace nocmap
