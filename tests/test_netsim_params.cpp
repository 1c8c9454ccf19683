// Network parameter sweeps: the simulator must stay correct (conservation,
// drain, zero-load timing) across VC counts and traffic shapes, not just the
// paper's Table-2 point. Router and link timing and the buffer depth are
// Table-2 constants.
#include <gtest/gtest.h>

#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

// One sweep case: `vcs` virtual channels per port, the router's one knob,
// and the traffic it carries. A packet travels `d` hops (at most, in the
// all-to-all), short packets are `l` flits, and each source sends `p`
// packets per destination.
struct ParamCase {
  std::uint32_t vcs;
  std::uint32_t hops;
  std::uint32_t flits;
  std::uint32_t packets;
};

std::string case_name(const ::testing::TestParamInfo<ParamCase>& info) {
  const ParamCase& c = info.param;
  return "vc" + std::to_string(c.vcs) + "_d" + std::to_string(c.hops) +
         "_l" + std::to_string(c.flits) + "_p" + std::to_string(c.packets);
}

class NetParamSweep : public ::testing::TestWithParam<ParamCase> {
 protected:
  NetworkConfig config() const {
    NetworkConfig cfg;
    cfg.vcs_per_port = GetParam().vcs;
    return cfg;
  }
};

// Every tile sends `p` packets to each tile at most `d` hops away, in turn
// `l` flits and a 5-flit reply long.
TEST_P(NetParamSweep, AllToAllConserves) {
  const ParamCase& c = GetParam();
  const Mesh mesh = Mesh::square(4);
  Network net(mesh, config());
  PacketId id = 1;
  std::uint64_t flits = 0;
  for (TileId src = 0; src < 16; ++src) {
    for (TileId dst = 0; dst < 16; ++dst) {
      if (src == dst || mesh.weighted_hops(src, dst) > c.hops) continue;
      for (std::uint32_t k = 0; k < c.packets; ++k) {
        const std::uint32_t f =
            (src * 3 + dst + k) % 2 ? c.flits : kLongPacketFlits;
        PacketInfo p;
        p.id = id++;
        p.src = src;
        p.dst = dst;
        p.flits = f;
        net.inject_packet(p);
        flits += f;
      }
    }
  }
  std::size_t ejected = 0;
  for (Cycle cyc = 0; cyc < 100000 && net.packets_in_flight() > 0; ++cyc) {
    net.step();
    ejected += net.take_ejections().size();
  }
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(ejected, id - 1);
  EXPECT_EQ(net.flits_ejected(), flits);
}

// A lone `l`-flit packet over `d` hops crosses d + 1 routers and d links,
// then streams out in `l` cycles. The `p` probes start in different rows
// and go one at a time, each into the network the last one left behind.
TEST_P(NetParamSweep, UnloadedLatencyMatchesParameters) {
  const ParamCase& c = GetParam();
  const Mesh mesh = Mesh::square(8);
  Network net(mesh, config());
  const Cycle expected = Cycle{c.hops + 1} * kRouterCycles +
                         Cycle{c.hops} * kLinkCycles + c.flits;
  for (std::uint32_t k = 0; k < c.packets; ++k) {
    PacketInfo p;
    p.id = k + 1;
    p.src = mesh.tile_at(k, 0);
    p.dst = mesh.tile_at(k + c.hops / 2, (c.hops + 1) / 2);
    p.flits = c.flits;
    p.created = net.now();
    ASSERT_EQ(mesh.weighted_hops(p.src, p.dst), c.hops);
    net.inject_packet(p);
    Cycle latency = 0;
    for (Cycle cyc = 0; cyc < 1000 && net.packets_in_flight() > 0; ++cyc) {
      net.step();
      for (const auto& e : net.take_ejections()) latency = e.latency();
    }
    EXPECT_EQ(latency, expected) << "probe " << k;
  }
}

// The traffic engine picks destinations and packet sizes itself, so only
// `p` shapes this run: it scales every thread's injection rate.
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
  cfg.traffic.injection_scale = GetParam().packets;
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

// More VC buffers per port must not hurt latency under contention.
TEST(NetParams, MoreBuffersHelpUnderLoad) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "hot";
  a.threads.assign(16, ThreadProfile{40.0, 4.0});
  const ObmProblem problem(TileLatencyModel(mesh, LatencyParams{}),
                           Workload({a}));
  auto g_apl_with = [&](std::uint32_t vcs) {
    SimConfig cfg;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 15000;
    cfg.network.vcs_per_port = vcs;
    return run_simulation(problem, problem.identity_mapping(), cfg).g_apl;
  };
  const double tight = g_apl_with(1);
  const double roomy = g_apl_with(4);
  EXPECT_LT(roomy, tight);
}

}  // namespace
}  // namespace nocmap
