// Routing-algorithm tests: XY (the paper's configuration), YX, and O1TURN
// with VC partitioning.
#include <gtest/gtest.h>

#include "netsim/network.h"

namespace nocmap {
namespace {

NetworkConfig config_for(RoutingAlgo algo) {
  NetworkConfig c;
  c.routing = algo;
  c.vcs_per_port = 4;  // even split for O1TURN
  return c;
}

PacketInfo make_packet(PacketId id, TileId src, TileId dst,
                       std::uint32_t flits = 1) {
  PacketInfo p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.flits = flits;
  return p;
}

std::vector<Ejection> run_until_drained(Network& net, Cycle limit = 100000) {
  std::vector<Ejection> all;
  for (Cycle c = 0; c < limit && net.packets_in_flight() > 0; ++c) {
    net.step();
    for (auto& e : net.take_ejections()) all.push_back(e);
  }
  return all;
}

TEST(VcRange, PartitionedOnlyForO1Turn) {
  NetworkConfig c = config_for(RoutingAlgo::kXY);
  std::uint32_t lo = 9, hi = 9;
  c.vc_range(true, lo, hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 4u);

  c = config_for(RoutingAlgo::kO1Turn);
  c.vc_range(false, lo, hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
  c.vc_range(true, lo, hi);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 4u);
}

class RoutingDelivery : public ::testing::TestWithParam<RoutingAlgo> {};

TEST_P(RoutingDelivery, AllToAllDrainsAndConserves) {
  const Mesh mesh = Mesh::square(4);
  Network net(mesh, config_for(GetParam()));
  PacketId id = 1;
  std::uint64_t flits = 0;
  for (TileId src = 0; src < 16; ++src) {
    for (TileId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      const std::uint32_t f = (src + dst) % 2 ? 1 : 5;
      net.inject_packet(make_packet(id++, src, dst, f));
      flits += f;
    }
  }
  const auto ejections = run_until_drained(net);
  EXPECT_EQ(ejections.size(), id - 1);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.flits_ejected(), flits);
}

TEST_P(RoutingDelivery, HotspotDrains) {
  const Mesh mesh = Mesh::square(5);
  Network net(mesh, config_for(GetParam()));
  const TileId hot = mesh.tile_at(2, 2);
  PacketId id = 1;
  for (TileId src = 0; src < 25; ++src) {
    if (src == hot) continue;
    net.inject_packet(make_packet(id++, src, hot, 5));
  }
  EXPECT_EQ(run_until_drained(net, 200000).size(), 24u);
}

INSTANTIATE_TEST_SUITE_P(Algos, RoutingDelivery,
                         ::testing::Values(RoutingAlgo::kXY,
                                           RoutingAlgo::kYX,
                                           RoutingAlgo::kO1Turn));

TEST(Routing, AllAlgorithmsAreMinimal) {
  // Same unloaded single-packet latency under every algorithm (all three
  // are minimal-path).
  const Mesh mesh = Mesh::square(6);
  std::vector<Cycle> lats;
  for (auto algo : {RoutingAlgo::kXY, RoutingAlgo::kYX,
                    RoutingAlgo::kO1Turn}) {
    Network net(mesh, config_for(algo));
    net.inject_packet(
        make_packet(1, mesh.tile_at(0, 0), mesh.tile_at(3, 2)));
    const auto e = run_until_drained(net);
    ASSERT_EQ(e.size(), 1u);
    lats.push_back(e[0].latency());
  }
  EXPECT_EQ(lats[0], lats[1]);
  EXPECT_EQ(lats[0], lats[2]);
}

TEST(Routing, XyUsesOnlyXFirstIntermediate) {
  // (0,0) -> (1,1): XY passes through (0,1); YX through (1,0).
  const Mesh mesh = Mesh::square(3);
  {
    Network net(mesh, config_for(RoutingAlgo::kXY));
    for (PacketId id = 1; id <= 20; ++id) {
      net.inject_packet(make_packet(id, mesh.tile_at(0, 0),
                                    mesh.tile_at(1, 1)));
    }
    run_until_drained(net);
    const ActivityRecord a = net.snapshot_activity();
    EXPECT_GT(a.routers[mesh.tile_at(0, 1)].buffer_writes, 0u);
    EXPECT_EQ(a.routers[mesh.tile_at(1, 0)].buffer_writes, 0u);
  }
  {
    Network net(mesh, config_for(RoutingAlgo::kYX));
    for (PacketId id = 1; id <= 20; ++id) {
      net.inject_packet(make_packet(id, mesh.tile_at(0, 0),
                                    mesh.tile_at(1, 1)));
    }
    run_until_drained(net);
    const ActivityRecord a = net.snapshot_activity();
    EXPECT_EQ(a.routers[mesh.tile_at(0, 1)].buffer_writes, 0u);
    EXPECT_GT(a.routers[mesh.tile_at(1, 0)].buffer_writes, 0u);
  }
}

TEST(Routing, O1TurnSplitsAcrossBothIntermediates) {
  const Mesh mesh = Mesh::square(3);
  Network net(mesh, config_for(RoutingAlgo::kO1Turn));
  for (PacketId id = 1; id <= 64; ++id) {
    net.inject_packet(
        make_packet(id, mesh.tile_at(0, 0), mesh.tile_at(1, 1)));
  }
  run_until_drained(net);
  const ActivityRecord a = net.snapshot_activity();
  EXPECT_GT(a.routers[mesh.tile_at(0, 1)].buffer_writes, 0u);
  EXPECT_GT(a.routers[mesh.tile_at(1, 0)].buffer_writes, 0u);
}

TEST(Routing, O1TurnNeedsTwoVcs) {
  NetworkConfig c = config_for(RoutingAlgo::kO1Turn);
  c.vcs_per_port = 1;
  EXPECT_THROW(Network(Mesh::square(3), c), Error);
}

TEST(Routing, DeterministicAcrossRuns) {
  auto run_once = [&] {
    const Mesh mesh = Mesh::square(4);
    Network net(mesh, config_for(RoutingAlgo::kO1Turn));
    for (PacketId id = 1; id <= 30; ++id) {
      net.inject_packet(
          make_packet(id, static_cast<TileId>(id % 16),
                      static_cast<TileId>((id * 7 + 3) % 16), 2));
    }
    std::vector<Cycle> lats;
    for (const auto& e : run_until_drained(net)) lats.push_back(e.latency());
    return lats;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nocmap
