// Distance-weighted (PDBA-lite) arbitration tests — the architectural
// balance mechanism of paper reference [16], implemented so it can be
// compared against mapping-stage balancing.
#include <gtest/gtest.h>

#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

NetworkConfig dw_config() {
  NetworkConfig c;
  c.arbitration = Arbitration::kDistanceWeighted;
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

std::vector<Ejection> run_until_drained(Network& net, Cycle limit = 200000) {
  std::vector<Ejection> all;
  for (Cycle c = 0; c < limit && net.packets_in_flight() > 0; ++c) {
    net.step();
    for (auto& e : net.take_ejections()) all.push_back(e);
  }
  return all;
}

TEST(DistanceArbitration, DeliversAndConserves) {
  const Mesh mesh = Mesh::square(4);
  Network net(mesh, dw_config());
  PacketId id = 1;
  for (TileId src = 0; src < 16; ++src) {
    for (TileId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      net.inject_packet(make_packet(id++, src, dst, (src + dst) % 2 ? 1 : 5));
    }
  }
  const auto ejections = run_until_drained(net);
  EXPECT_EQ(ejections.size(), id - 1);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST(DistanceArbitration, HotspotDrains) {
  const Mesh mesh = Mesh::square(5);
  Network net(mesh, dw_config());
  const TileId hot = mesh.tile_at(2, 2);
  PacketId id = 1;
  for (TileId src = 0; src < 25; ++src) {
    if (src == hot) continue;
    net.inject_packet(make_packet(id++, src, hot, 5));
  }
  EXPECT_EQ(run_until_drained(net).size(), 24u);
}

TEST(DistanceArbitration, DeterministicForSeed) {
  auto run_once = [&] {
    const Mesh mesh = Mesh::square(4);
    Network net(mesh, dw_config());
    for (PacketId id = 1; id <= 40; ++id) {
      net.inject_packet(make_packet(
          id, static_cast<TileId>(id % 16),
          static_cast<TileId>((id * 5 + 2) % 16), 2));
    }
    std::vector<Cycle> lats;
    for (const auto& e : run_until_drained(net)) lats.push_back(e.latency());
    return lats;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DistanceArbitration, UnloadedLatencyUnchanged) {
  // Arbitration only matters under contention; a lone packet sees the same
  // latency under both policies.
  const Mesh mesh = Mesh::square(6);
  for (auto arb : {Arbitration::kRoundRobin,
                   Arbitration::kDistanceWeighted}) {
    NetworkConfig cfg;
    cfg.arbitration = arb;
    Network net(mesh, cfg);
    net.inject_packet(make_packet(1, mesh.tile_at(0, 0),
                                  mesh.tile_at(2, 3)));
    const auto e = run_until_drained(net);
    ASSERT_EQ(e.size(), 1u);
    EXPECT_EQ(e[0].latency(), 24u);  // 5 hops x 4 + 3 pipeline + 1 eject
  }
}

TEST(DistanceArbitration, FullSimulationWorks) {
  const Mesh mesh = Mesh::square(8);
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     synthesize_workload(parsec_config("C1"), 81));
  SimConfig cfg;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 15000;
  cfg.network.arbitration = Arbitration::kDistanceWeighted;
  const SimResult r = run_simulation(p, p.identity_mapping(), cfg);
  EXPECT_FALSE(r.drain_incomplete);
  EXPECT_GT(r.packets_measured, 1000u);
}

// Under heavy contention the distance-weighted arbiter must favour
// long-haul packets: the latency gap between far and near senders to a
// common hotspot shrinks relative to round-robin.
TEST(DistanceArbitration, EqualizesNearVsFarUnderContention) {
  const Mesh mesh = Mesh::square(8);
  auto far_minus_near = [&](Arbitration arb) {
    NetworkConfig cfg;
    cfg.arbitration = arb;
    Network net(mesh, cfg);
    const TileId hot = mesh.tile_at(0, 0);
    // Everyone floods the corner; compare the farthest and nearest rows.
    PacketId id = 1;
    for (int round = 0; round < 6; ++round) {
      for (TileId src = 1; src < 64; ++src) {
        net.inject_packet(make_packet(id++, src, hot, 2));
      }
    }
    double near_sum = 0.0, far_sum = 0.0;
    std::size_t near_n = 0, far_n = 0;
    for (const auto& e : run_until_drained(net, 500000)) {
      const double d = mesh.weighted_hops(e.info.src, hot);
      if (d <= 2) {
        near_sum += static_cast<double>(e.latency());
        ++near_n;
      } else if (d >= 10) {
        far_sum += static_cast<double>(e.latency());
        ++far_n;
      }
    }
    return far_sum / static_cast<double>(far_n) -
           near_sum / static_cast<double>(near_n);
  };
  const double rr_gap = far_minus_near(Arbitration::kRoundRobin);
  const double dw_gap = far_minus_near(Arbitration::kDistanceWeighted);
  EXPECT_LT(dw_gap, rr_gap);
}

}  // namespace
}  // namespace nocmap
