// Edge shapes for the spatially partitioned netsim (DESIGN.md §16): the
// row-band decomposition must be bit-identical to the serial engine not
// just at the friendly power-of-two counts the golden gate covers, but at
// odd worker counts (bands of unequal height), worker counts exceeding the
// row count (domains clamp to rows), non-square and degenerate 2-wide
// meshes (every router is a boundary router), and under different drain
// caps (the measurement window must not see the partition *or* the drain).
#include "netsim/network.h"
#include "netsim/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

/// rows × cols mesh with corner MCs (degenerate corners coincide on 1-row /
/// 1-col shapes are not used here) and a 4-app workload filling the tiles.
ObmProblem rect_problem(std::uint32_t rows, std::uint32_t cols,
                        std::uint64_t seed) {
  const std::uint32_t last_col = cols - 1;
  const std::uint32_t last_row = rows - 1;
  const Mesh mesh(rows, cols,
                  {0, last_col, last_row * cols, last_row * cols + last_col});
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C2"), 77 + seed, opt));
}

SimConfig quick_config(std::size_t sim_workers) {
  SimConfig c;
  c.warmup_cycles = 300;
  c.measure_cycles = 2500;
  c.traffic.injection_scale = 2.0;
  c.sim_workers = sim_workers;
  return c;
}

void expect_identical(const SimResult& s, const SimResult& q) {
  ASSERT_EQ(q.apl.size(), s.apl.size());
  for (std::size_t a = 0; a < s.apl.size(); ++a) {
    EXPECT_EQ(q.apl[a], s.apl[a]) << "app " << a;
  }
  EXPECT_EQ(q.max_apl, s.max_apl);
  EXPECT_EQ(q.dev_apl, s.dev_apl);
  EXPECT_EQ(q.g_apl, s.g_apl);
  EXPECT_EQ(q.packets_measured, s.packets_measured);
  EXPECT_EQ(q.local_accesses, s.local_accesses);
  EXPECT_EQ(q.flits_injected, s.flits_injected);
  EXPECT_EQ(q.flits_ejected, s.flits_ejected);
  EXPECT_EQ(q.activity.crossbar_traversals, s.activity.crossbar_traversals);
  EXPECT_EQ(q.activity.link_traversals, s.activity.link_traversals);
  EXPECT_EQ(q.activity.queue_wait_cycles, s.activity.queue_wait_cycles);
  EXPECT_EQ(q.load.max_crossbar_per_cycle, s.load.max_crossbar_per_cycle);
  EXPECT_EQ(q.load.link_utilization, s.load.link_utilization);
}

// --- Partition geometry ----------------------------------------------------

TEST(NetsimPartition, DomainsAreContiguousRowBandsCoveringTheMesh) {
  const Mesh mesh = Mesh::square(8);
  const NetworkConfig config;
  for (const std::size_t workers : {1, 2, 3, 5, 7, 8}) {
    Network net(mesh, config, workers);
    ASSERT_EQ(net.num_domains(), workers);  // workers <= rows here
    TileId expect_first = 0;
    for (std::size_t d = 0; d < net.num_domains(); ++d) {
      EXPECT_EQ(net.domain_first_tile(d), expect_first);
      const TileId end = net.domain_end_tile(d);
      // Whole rows only: band edges land on row boundaries.
      EXPECT_EQ((end - net.domain_first_tile(d)) % mesh.cols(), 0u);
      EXPECT_GT(end, net.domain_first_tile(d));
      expect_first = end;
    }
    EXPECT_EQ(expect_first, mesh.num_tiles());
  }
}

TEST(NetsimPartition, WorkerCountClampsToRows) {
  const Mesh mesh = Mesh::square(4);
  const NetworkConfig config;
  for (const std::size_t workers : {4, 5, 8, 64}) {
    Network net(mesh, config, workers);
    EXPECT_EQ(net.num_domains(), 4u) << workers << " workers";
    for (std::size_t d = 0; d < net.num_domains(); ++d) {
      // One row per domain once clamped.
      EXPECT_EQ(net.domain_end_tile(d) - net.domain_first_tile(d),
                mesh.cols());
    }
  }
}

TEST(NetsimPartition, TwoWideMeshesPartitionDownToSingleRows) {
  // 8×2: eight rows of two tiles — every router borders another domain.
  const Mesh tall(8, 2, {0, 1, 14, 15});
  Network net(tall, NetworkConfig{}, 8);
  EXPECT_EQ(net.num_domains(), 8u);
  // 2×8: only two rows, so any worker count yields at most two domains.
  const Mesh wide(2, 8, {0, 7, 8, 15});
  Network net2(wide, NetworkConfig{}, 8);
  EXPECT_EQ(net2.num_domains(), 2u);
}

// --- Bit-identity on awkward shapes ---------------------------------------

TEST(NetsimPartition, OddWorkerCountsMatchSerialOn8x8) {
  const ObmProblem p = rect_problem(8, 8, 1);
  const Mapping id = p.identity_mapping();
  const SimResult serial = run_simulation(p, id, quick_config(1));
  for (const std::size_t workers : {3, 5, 7}) {
    SCOPED_TRACE(std::to_string(workers) + " workers (uneven bands)");
    expect_identical(serial, run_simulation(p, id, quick_config(workers)));
  }
}

TEST(NetsimPartition, WorkersExceedingRowsMatchSerial) {
  const ObmProblem p = rect_problem(4, 4, 2);
  const Mapping id = p.identity_mapping();
  const SimResult serial = run_simulation(p, id, quick_config(1));
  for (const std::size_t workers : {6, 16, 64}) {
    SCOPED_TRACE(std::to_string(workers) + " workers on 4 rows");
    expect_identical(serial, run_simulation(p, id, quick_config(workers)));
  }
}

TEST(NetsimPartition, NonSquareMeshMatchesSerial) {
  const ObmProblem p = rect_problem(6, 10, 3);
  const Mapping id = p.identity_mapping();
  const SimResult serial = run_simulation(p, id, quick_config(1));
  for (const std::size_t workers : {2, 3, 4, 6}) {
    SCOPED_TRACE(std::to_string(workers) + " workers on 6x10");
    expect_identical(serial, run_simulation(p, id, quick_config(workers)));
  }
}

TEST(NetsimPartition, TwoWideMeshesMatchSerial) {
  // All traffic crosses domain boundaries on these shapes, so staging and
  // commit carry the entire flit stream.
  for (const auto& [rows, cols] : {std::pair<std::uint32_t, std::uint32_t>{
                                       8, 2},
                                   {2, 8}}) {
    const ObmProblem p = rect_problem(rows, cols, 4);
    const Mapping id = p.identity_mapping();
    const SimResult serial = run_simulation(p, id, quick_config(1));
    for (const std::size_t workers : {2, 8}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                   " at " + std::to_string(workers) + " workers");
      expect_identical(serial, run_simulation(p, id, quick_config(workers)));
    }
  }
}

TEST(NetsimPartition, YxAndO1TurnRoutingMatchSerialWhenPartitioned) {
  // Y-first sub-routes cross row bands immediately at the source router —
  // the worst case for the halo-exchange path.
  const ObmProblem p = rect_problem(8, 8, 5);
  const Mapping id = p.identity_mapping();
  for (const RoutingAlgo algo : {RoutingAlgo::kYX, RoutingAlgo::kO1Turn}) {
    SimConfig base = quick_config(1);
    base.network.routing = algo;
    if (algo == RoutingAlgo::kO1Turn) base.network.vcs_per_port = 4;
    const SimResult serial = run_simulation(p, id, base);
    for (const std::size_t workers : {2, 5, 8}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(algo)) + " at " +
                   std::to_string(workers) + " workers");
      SimConfig c = base;
      c.sim_workers = workers;
      expect_identical(serial, run_simulation(p, id, c));
    }
  }
}

// --- Drain-window invariance ----------------------------------------------

TEST(NetsimPartition, MeasurementWindowInvariantUnderDrainCapAndWorkers) {
  // The snapshot-frozen results (measurement-window activity, load digest)
  // must not depend on how long the drain runs — at any partition width.
  // Full results (APLs included) are invariant across *completing* drain
  // caps; a binding cap censors tail packets identically at every width.
  const ObmProblem p = rect_problem(8, 8, 6);
  const Mapping id = p.identity_mapping();

  SimConfig generous = quick_config(1);
  generous.max_drain_cycles = 200000;
  const SimResult reference = run_simulation(p, id, generous);
  ASSERT_FALSE(reference.drain_incomplete);

  SimConfig capped_serial = quick_config(1);
  capped_serial.max_drain_cycles = 40;
  const SimResult censored = run_simulation(p, id, capped_serial);
  ASSERT_TRUE(censored.drain_incomplete);

  for (const std::size_t workers : {1, 2, 8}) {
    for (const Cycle cap : {Cycle{40}, Cycle{5000}, Cycle{200000}}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, drain cap " +
                   std::to_string(cap));
      SimConfig c = quick_config(workers);
      c.max_drain_cycles = cap;
      const SimResult r = run_simulation(p, id, c);
      // Frozen at the window's end, before any drain cycle runs: identical
      // whatever the cap and whatever the partition width.
      EXPECT_EQ(r.activity.crossbar_traversals,
                reference.activity.crossbar_traversals);
      EXPECT_EQ(r.activity.link_traversals,
                reference.activity.link_traversals);
      EXPECT_EQ(r.activity.queue_wait_cycles,
                reference.activity.queue_wait_cycles);
      EXPECT_EQ(r.load.max_crossbar_per_cycle,
                reference.load.max_crossbar_per_cycle);
      EXPECT_EQ(r.load.link_utilization, reference.load.link_utilization);
      // Latency samples: bit-identical to the serial run under the same
      // cap — complete when the drain finishes, censored the same way at
      // every partition width when it does not.
      const SimResult& expected = (cap == 40) ? censored : reference;
      EXPECT_EQ(r.drain_incomplete, expected.drain_incomplete);
      ASSERT_EQ(r.apl.size(), expected.apl.size());
      for (std::size_t a = 0; a < expected.apl.size(); ++a) {
        EXPECT_EQ(r.apl[a], expected.apl[a]) << "app " << a;
      }
      EXPECT_EQ(r.g_apl, expected.g_apl);
      EXPECT_EQ(r.packets_measured, expected.packets_measured);
      if (cap >= 5000) {
        // A completing drain conserves flits regardless of partitioning.
        EXPECT_FALSE(r.drain_incomplete);
        EXPECT_EQ(r.flits_injected, r.flits_ejected);
      }
    }
  }
}

// --- Boundary accounting ---------------------------------------------------

TEST(NetsimPartition, BoundaryFlitCountTracksPartitionWidth) {
  const ObmProblem p = rect_problem(8, 8, 7);
  const Mapping id = p.identity_mapping();
  // Serial: no boundaries, no halo traffic.
  Network serial(p.mesh(), NetworkConfig{}, 1);
  EXPECT_EQ(serial.boundary_flits(), 0u);

  // Partitioned run: vertical traffic must cross bands, so the halo volume
  // is positive and grows (weakly) with the number of band edges.
  SimConfig c2 = quick_config(2);
  SimConfig c8 = quick_config(8);
  const ObmProblem& pp = p;

  auto boundary_volume = [&](const SimConfig& cfg) {
    Network net(pp.mesh(), cfg.network, cfg.sim_workers);
    TrafficEngine traffic(pp, id, cfg.traffic);
    std::vector<LocalAccess> locals;
    for (Cycle t = 0; t < 2000; ++t) {
      locals.clear();
      traffic.generate(net, t, locals);
      net.step();
      for (const Ejection& e : net.take_ejections()) {
        traffic.on_ejection(net, e, net.now());
      }
    }
    return net.boundary_flits();
  };

  const std::uint64_t halo2 = boundary_volume(c2);
  const std::uint64_t halo8 = boundary_volume(c8);
  EXPECT_GT(halo2, 0u);
  EXPECT_GT(halo8, halo2);  // 7 band edges see more crossings than 1
}

// --- Stacked (3D) meshes ---------------------------------------------------

/// layers × n × n stack with corner MCs on the base die and a 4-app
/// workload filling the tiles.
ObmProblem stacked_problem(std::uint32_t layers, std::uint32_t n,
                           std::uint64_t seed) {
  const Mesh mesh = Mesh::stacked_with_placement(layers, n,
                                                 McPlacement::kCorners);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C2"), 77 + seed, opt));
}

TEST(NetsimPartition3D, DomainsAreLayerRowSlabs) {
  // A stack partitions over layer-major global rows: 2 layers of 4 rows
  // give 8 splittable slabs, each a whole number of rows wide.
  const Mesh mesh(2, 4, 4, {0, 3, 12, 15});
  for (const std::size_t workers : {1, 2, 3, 8, 64}) {
    Network net(mesh, NetworkConfig{}, workers);
    EXPECT_EQ(net.num_domains(), std::min<std::size_t>(workers, 8u))
        << workers << " workers";
    TileId expect_first = 0;
    for (std::size_t d = 0; d < net.num_domains(); ++d) {
      EXPECT_EQ(net.domain_first_tile(d), expect_first);
      const TileId end = net.domain_end_tile(d);
      EXPECT_EQ((end - net.domain_first_tile(d)) % mesh.cols(), 0u);
      expect_first = end;
    }
    EXPECT_EQ(expect_first, mesh.num_tiles());
  }
}

TEST(NetsimPartition3D, StackedMeshMatchesSerial) {
  // Vertical (TSV) traffic crosses the layer boundary between slabs — the
  // 3D analogue of the halo-exchange worst case.
  const ObmProblem p = stacked_problem(2, 4, 8);
  const Mapping id = p.identity_mapping();
  const SimResult serial = run_simulation(p, id, quick_config(1));
  EXPECT_EQ(serial.flits_injected, serial.flits_ejected);
  for (const std::size_t workers : {2, 3, 8}) {
    SCOPED_TRACE(std::to_string(workers) + " workers on 2x4x4");
    expect_identical(serial, run_simulation(p, id, quick_config(workers)));
  }
}

// Acceptance scenario: a 4x8x8 (256-tile) multi-application stack runs end
// to end — analytic model, all four paper mappers, and the partitioned
// simulator bit-identical at 1/2/8 workers.
TEST(NetsimPartition3D, FourLayer8x8EndToEndAllMappers) {
  const ObmProblem p = stacked_problem(4, 8, 9);
  ASSERT_EQ(p.mesh().num_tiles(), 256u);

  GlobalMapper global;
  MonteCarloMapper mc(200, 7);
  AnnealingMapper sa(AnnealingParams{.iterations = 2000, .seed = 7});
  SortSelectSwapMapper sss;
  const std::vector<Mapper*> mappers{&global, &mc, &sa, &sss};

  Mapping best;
  double best_max_apl = 0.0;
  for (Mapper* mapper : mappers) {
    const Mapping m = mapper->map(p);
    ASSERT_TRUE(m.is_valid_permutation(p.mesh().num_tiles()));
    const LatencyReport r = evaluate(p, m);
    EXPECT_GT(r.max_apl, 0.0);
    EXPECT_GE(r.max_apl, r.g_apl);
    if (best.thread_to_tile.empty() || r.max_apl < best_max_apl) {
      best = m;
      best_max_apl = r.max_apl;
    }
  }

  SimConfig c = quick_config(1);
  c.warmup_cycles = 200;
  c.measure_cycles = 1200;
  const SimResult serial = run_simulation(p, best, c);
  EXPECT_GT(serial.packets_measured, 0u);
  EXPECT_EQ(serial.flits_injected, serial.flits_ejected);
  for (const std::size_t workers : {2, 8}) {
    SCOPED_TRACE(std::to_string(workers) + " workers on 4x8x8");
    SimConfig cw = c;
    cw.sim_workers = workers;
    expect_identical(serial, run_simulation(p, best, cw));
  }
}

}  // namespace
}  // namespace nocmap
