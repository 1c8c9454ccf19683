#include "netsim/sim.h"

#include <gtest/gtest.h>

#include "core/global_mapper.h"
#include "core/metrics.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem small_problem() {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(2);
  apps[0].name = "light";
  apps[0].threads.assign(8, ThreadProfile{2.0, 0.3});
  apps[1].name = "heavy";
  apps[1].threads.assign(8, ThreadProfile{8.0, 1.0});
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    Workload(std::move(apps)));
}

SimConfig quick_config() {
  SimConfig c;
  c.warmup_cycles = 1000;
  c.measure_cycles = 20000;
  return c;
}

TEST(Sim, ProducesSamplesAndDrains) {
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  EXPECT_GT(r.packets_measured, 1000u);
  EXPECT_FALSE(r.drain_incomplete);
  EXPECT_GT(r.g_apl, 0.0);
  EXPECT_GT(r.max_apl, 0.0);
  ASSERT_EQ(r.apl.size(), 2u);
  EXPECT_GT(r.apl[0], 0.0);
  EXPECT_GT(r.apl[1], 0.0);
}

TEST(Sim, DeterministicForSeed) {
  const ObmProblem p = small_problem();
  const SimResult a = run_simulation(p, p.identity_mapping(), quick_config());
  const SimResult b = run_simulation(p, p.identity_mapping(), quick_config());
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_DOUBLE_EQ(a.g_apl, b.g_apl);
  EXPECT_DOUBLE_EQ(a.max_apl, b.max_apl);
}

TEST(Sim, SeedChangesTraffic) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  const SimResult a = run_simulation(p, p.identity_mapping(), c);
  c.traffic.seed = 999;
  const SimResult b = run_simulation(p, p.identity_mapping(), c);
  EXPECT_NE(a.packets_measured, b.packets_measured);
}

TEST(Sim, AllFourPacketClassesObserved) {
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  for (std::size_t cls = 0; cls < 4; ++cls) {
    EXPECT_GT(r.per_class[cls].count(), 0u) << "packet class " << cls;
  }
}

TEST(Sim, RepliesSlowerThanRequestsOnAverage) {
  // 5-flit replies carry 4 extra serialization cycles over 1-flit requests.
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  const auto req =
      static_cast<std::size_t>(PacketClass::kCacheRequest);
  const auto rep = static_cast<std::size_t>(PacketClass::kCacheReply);
  EXPECT_GT(r.per_class[rep].mean(), r.per_class[req].mean() + 2.0);
}

// Measured latency must track the analytic model: tiles with larger TC see
// larger measured cache latency (constant pipeline offset aside).
TEST(Sim, MeasuredAplTracksAnalyticOrdering) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, LatencyParams{});
  // Two single-thread "applications": one on the corner, one in the middle.
  std::vector<Application> apps(2);
  apps[0].name = "corner";
  apps[0].threads.assign(1, ThreadProfile{20.0, 0.0});
  apps[1].name = "center";
  apps[1].threads.assign(1, ThreadProfile{20.0, 0.0});
  Workload wl = Workload(std::move(apps)).padded_to(16);
  const ObmProblem p(model, std::move(wl));

  Mapping m;
  m.thread_to_tile.resize(16);
  m.thread_to_tile[0] = mesh.tile_at(0, 0);  // corner: TC high
  m.thread_to_tile[1] = mesh.tile_at(1, 1);  // center: TC low
  TileId next = 0;
  for (std::size_t j = 2; j < 16; ++j) {
    while (next == mesh.tile_at(0, 0) || next == mesh.tile_at(1, 1)) ++next;
    m.thread_to_tile[j] = next++;
  }
  ASSERT_TRUE(m.is_valid_permutation(16));

  SimConfig c = quick_config();
  c.measure_cycles = 50000;
  const SimResult r = run_simulation(p, m, c);
  EXPECT_GT(r.apl[0], r.apl[1]);  // corner app slower, as analytic predicts
}

TEST(Sim, ZeroTrafficApplicationYieldsZeroApl) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(1);
  apps[0].name = "only";
  apps[0].threads.assign(8, ThreadProfile{5.0, 0.5});
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     Workload(std::move(apps)).padded_to(16));
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  EXPECT_DOUBLE_EQ(r.apl[1], 0.0);  // the idle pad application
  EXPECT_EQ(r.per_app[1].count(), 0u);
}

TEST(Sim, LocalAccessesRecordedAsZeroLatency) {
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  // On a 16-tile chip, 1/16 of cache requests hash to the local bank.
  EXPECT_GT(r.local_accesses, 0u);
  // Each one is a zero-cycle sample: bucket 0 of its application's
  // histogram, which no packet that crossed the network can reach.
  std::size_t zero_latency = 0;
  for (const Histogram& h : r.per_app_histogram) {
    if (!h.counts().empty()) zero_latency += h.counts()[0];
  }
  EXPECT_EQ(zero_latency, r.local_accesses);
}

TEST(Sim, ActivityCountersPopulated) {
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  EXPECT_GT(r.activity.link_traversals, 0u);
  EXPECT_GT(r.activity.buffer_writes, 0u);
  EXPECT_EQ(r.measured_cycles, quick_config().measure_cycles);
}

// An empty measurement window must report zero everything: the activity
// reset used to fire only on a `cycle == measure_start` test inside the
// warmup+measure loop, so measure_cycles == 0 skipped the reset and leaked
// all warmup activity (thousands of buffer writes) into the result.
TEST(Sim, EmptyMeasurementWindowReportsZeroActivity) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  c.measure_cycles = 0;
  const SimResult r = run_simulation(p, p.identity_mapping(), c);
  EXPECT_EQ(r.measured_cycles, 0u);
  EXPECT_EQ(r.packets_measured, 0u);
  EXPECT_EQ(r.local_accesses, 0u);
  EXPECT_EQ(r.activity.buffer_writes, 0u);
  EXPECT_EQ(r.activity.crossbar_traversals, 0u);
  EXPECT_EQ(r.activity.link_traversals, 0u);
  EXPECT_DOUBLE_EQ(r.load.max_crossbar_per_cycle, 0.0);
  EXPECT_DOUBLE_EQ(r.load.link_utilization, 0.0);
}

// The measurement-window activity and load summary are snapshotted at the
// window's end, so the drain phase — however long it runs — cannot inflate
// them. Heavy bursty load leaves plenty of in-flight traffic at the window
// boundary, making the drain long enough to expose any leak.
TEST(Sim, DrainLengthDoesNotAffectMeasuredActivityOrLoad) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  c.traffic.injection_scale = 6.0;
  c.traffic.bursty = true;
  c.traffic.burst_duty = 0.25;

  SimConfig no_drain = c;
  no_drain.max_drain_cycles = 0;
  SimConfig long_drain = c;
  long_drain.max_drain_cycles = 400000;

  const SimResult a = run_simulation(p, p.identity_mapping(), no_drain);
  const SimResult b = run_simulation(p, p.identity_mapping(), long_drain);

  // The drained run really did keep simulating past the window...
  EXPECT_TRUE(a.drain_incomplete);
  EXPECT_FALSE(b.drain_incomplete);
  EXPECT_GT(b.activity_with_drain.crossbar_traversals,
            a.activity_with_drain.crossbar_traversals);

  // ...yet the measurement-window activity and load digest are identical.
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);
  EXPECT_EQ(a.activity.crossbar_traversals, b.activity.crossbar_traversals);
  EXPECT_EQ(a.activity.link_traversals, b.activity.link_traversals);
  EXPECT_EQ(a.activity.queue_wait_cycles, b.activity.queue_wait_cycles);
  EXPECT_EQ(a.load.max_crossbar_per_cycle, b.load.max_crossbar_per_cycle);
  EXPECT_EQ(a.load.mean_crossbar_per_cycle, b.load.mean_crossbar_per_cycle);
  EXPECT_EQ(a.load.max_avg_queue_wait, b.load.max_avg_queue_wait);
  EXPECT_EQ(a.load.max_queue_occupancy, b.load.max_queue_occupancy);
  EXPECT_EQ(a.load.link_utilization, b.load.link_utilization);
}

TEST(Sim, InjectionScaleIncreasesTraffic) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  const SimResult base = run_simulation(p, p.identity_mapping(), c);
  c.traffic.injection_scale = 2.0;
  const SimResult heavy = run_simulation(p, p.identity_mapping(), c);
  EXPECT_GT(heavy.packets_measured,
            static_cast<std::uint64_t>(
                static_cast<double>(base.packets_measured) * 1.5));
}

TEST(Sim, PairedTrafficAcrossMappings) {
  // Per-thread RNG streams make a thread's request sequence identical
  // under any mapping: per-application sample counts must agree across two
  // different mappings up to window edge effects (local accesses complete
  // instantly; remote ones may slip past the measurement window).
  const ObmProblem p = small_problem();
  Mapping swapped = p.identity_mapping();
  std::swap(swapped.thread_to_tile[0], swapped.thread_to_tile[15]);
  std::swap(swapped.thread_to_tile[3], swapped.thread_to_tile[8]);
  const SimResult a = run_simulation(p, p.identity_mapping(), quick_config());
  const SimResult b = run_simulation(p, swapped, quick_config());
  for (std::size_t app = 0; app < 2; ++app) {
    const double ca = static_cast<double>(a.per_app[app].count());
    const double cb = static_cast<double>(b.per_app[app].count());
    EXPECT_NEAR(ca, cb, 0.02 * ca) << "app " << app;
  }
}

TEST(Sim, PerAppPercentilesOrdered) {
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  for (std::size_t app = 0; app < 2; ++app) {
    const double p50 = r.app_percentile(app, 0.50);
    const double p95 = r.app_percentile(app, 0.95);
    const double p99 = r.app_percentile(app, 0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(p99, 0.0);
  }
}

TEST(Sim, QueuingDelaySmallAtPaperLoads) {
  // Paper Section II.C: td_q is 0..1 cycles at the evaluated loads.
  const ObmProblem p = small_problem();
  const SimResult r = run_simulation(p, p.identity_mapping(), quick_config());
  EXPECT_LT(r.activity.avg_queue_wait(), 1.0);
}

TEST(Sim, QueuingDelayGrowsWithLoad) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  const SimResult light = run_simulation(p, p.identity_mapping(), c);
  c.traffic.injection_scale = 8.0;
  const SimResult heavy = run_simulation(p, p.identity_mapping(), c);
  EXPECT_GT(heavy.activity.avg_queue_wait(),
            light.activity.avg_queue_wait());
}

TEST(TrafficEngine, RequiresValidMapping) {
  const ObmProblem p = small_problem();
  Mapping bad;
  bad.thread_to_tile.assign(16, 0);
  EXPECT_THROW(TrafficEngine(p, bad, TrafficConfig{}), Error);
}

TEST(Sim, BurstyPreservesMeanRate) {
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  c.measure_cycles = 60000;
  const SimResult steady = run_simulation(p, p.identity_mapping(), c);
  c.traffic.bursty = true;
  const SimResult bursty = run_simulation(p, p.identity_mapping(), c);
  const double ratio = static_cast<double>(bursty.packets_measured) /
                       static_cast<double>(steady.packets_measured);
  EXPECT_NEAR(ratio, 1.0, 0.12);
}

TEST(Sim, BurstinessFattensTheTail) {
  // Same mean load, but on-phases at 1/duty the rate: queuing spikes show
  // up in the p99 even when the mean barely moves.
  const ObmProblem p = small_problem();
  SimConfig c = quick_config();
  c.measure_cycles = 60000;
  c.traffic.injection_scale = 3.0;  // enough load for queues to form
  const SimResult steady = run_simulation(p, p.identity_mapping(), c);
  c.traffic.bursty = true;
  c.traffic.burst_duty = 0.25;
  const SimResult bursty = run_simulation(p, p.identity_mapping(), c);
  EXPECT_GT(bursty.app_percentile(1, 0.99), steady.app_percentile(1, 0.99));
}

TEST(Sim, SaturatedTailsAreNotClamped) {
  // Far past saturation both applications average well over 400 cycles.
  // A histogram clamped at 400 put their p99 below that mean; unclamped, the
  // p99 of these right-skewed queueing delays is at least the mean.
  const ObmProblem p = small_problem();
  SimConfig c;
  c.warmup_cycles = 500;
  c.measure_cycles = 3000;
  c.traffic.injection_scale = 32.0;
  const SimResult r = run_simulation(p, p.identity_mapping(), c);
  for (std::size_t app = 0; app < 2; ++app) {
    ASSERT_GT(r.apl[app], 400.0) << "app " << app;
    EXPECT_GE(r.app_percentile(app, 0.99), r.apl[app]) << "app " << app;
  }
}

TEST(TrafficEngine, BurstParamsValidated) {
  const ObmProblem p = small_problem();
  TrafficConfig cfg;
  cfg.bursty = true;
  cfg.burst_duty = 0.0;
  EXPECT_THROW(TrafficEngine(p, p.identity_mapping(), cfg), Error);
  cfg.burst_duty = 1.0;
  EXPECT_THROW(TrafficEngine(p, p.identity_mapping(), cfg), Error);
}

// --- Memory-traffic modes --------------------------------------------------

ObmProblem mode_problem(MemoryTrafficMode mode) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(2);
  apps[0].name = "light";
  apps[0].threads.assign(8, ThreadProfile{2.0, 0.8});
  apps[1].name = "heavy";
  apps[1].threads.assign(8, ThreadProfile{8.0, 1.5});
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}, mode),
                    Workload(std::move(apps)));
}

TEST(SimMemoryModes, ModeComesFromTheProblemModel) {
  // run_simulation derives the traffic engine's memory mode from the
  // problem's latency model; a contradictory SimConfig setting is ignored,
  // so analytic and measured results can never disagree about the mode.
  const ObmProblem proximity = mode_problem(MemoryTrafficMode::kProximity);
  SimConfig c = quick_config();
  c.traffic.memory_mode = MemoryTrafficMode::kMulticast;
  const SimResult r = run_simulation(proximity, proximity.identity_mapping(),
                                     c);
  const auto fwd = static_cast<std::size_t>(PacketClass::kMemoryForward);
  EXPECT_EQ(r.per_class[fwd].count(), 0u);
}

TEST(SimMemoryModes, AllModesConserveFlits) {
  for (const MemoryTrafficMode mode :
       {MemoryTrafficMode::kProximity, MemoryTrafficMode::kInterleaved,
        MemoryTrafficMode::kMulticast}) {
    SCOPED_TRACE(memory_traffic_mode_name(mode));
    const ObmProblem p = mode_problem(mode);
    const SimResult r =
        run_simulation(p, p.identity_mapping(), quick_config());
    EXPECT_FALSE(r.drain_incomplete);
    EXPECT_EQ(r.flits_injected, r.flits_ejected);
    const auto req = static_cast<std::size_t>(PacketClass::kMemoryRequest);
    const auto rep = static_cast<std::size_t>(PacketClass::kMemoryReply);
    EXPECT_GT(r.per_class[req].count(), 0u);
    EXPECT_GT(r.per_class[rep].count(), 0u);
  }
}

TEST(SimMemoryModes, InterleavingLengthensMemoryRequests) {
  // Round-robin over all MCs replaces the nearest-MC distance with the
  // average distance, so measured memory-request latency must rise.
  const ObmProblem near = mode_problem(MemoryTrafficMode::kProximity);
  const ObmProblem inter = mode_problem(MemoryTrafficMode::kInterleaved);
  const SimResult a =
      run_simulation(near, near.identity_mapping(), quick_config());
  const SimResult b =
      run_simulation(inter, inter.identity_mapping(), quick_config());
  const auto req = static_cast<std::size_t>(PacketClass::kMemoryRequest);
  EXPECT_GT(b.per_class[req].mean(), a.per_class[req].mean());
}

TEST(SimMemoryModes, MulticastEmitsForwardSegmentsAndOneReply) {
  const ObmProblem p = mode_problem(MemoryTrafficMode::kMulticast);
  const SimResult r =
      run_simulation(p, p.identity_mapping(), quick_config());
  const auto fwd = static_cast<std::size_t>(PacketClass::kMemoryForward);
  const auto req = static_cast<std::size_t>(PacketClass::kMemoryRequest);
  const auto rep = static_cast<std::size_t>(PacketClass::kMemoryReply);
  // Reaching 4 corner MCs from one source takes branch segments beyond the
  // plain delivery packets.
  EXPECT_GT(r.per_class[fwd].count(), 0u);
  // Every request transaction still gets exactly one reply (from the
  // responder MC), so replies cannot outnumber MC deliveries.
  EXPECT_GT(r.per_class[rep].count(), 0u);
  EXPECT_LT(r.per_class[rep].count(), r.per_class[req].count());
  EXPECT_FALSE(r.drain_incomplete);
}

TEST(SimMemoryModes, StackedMeshSimulatesAllModes) {
  const Mesh mesh = Mesh::stacked_with_placement(2, 4, McPlacement::kCorners,
                                                 0.5);
  for (const MemoryTrafficMode mode :
       {MemoryTrafficMode::kProximity, MemoryTrafficMode::kInterleaved,
        MemoryTrafficMode::kMulticast}) {
    SCOPED_TRACE(memory_traffic_mode_name(mode));
    std::vector<Application> apps = {
        {"a", std::vector<ThreadProfile>(16, ThreadProfile{3.0, 0.6})},
        {"b", std::vector<ThreadProfile>(16, ThreadProfile{6.0, 1.2})}};
    const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}, mode),
                       Workload(std::move(apps)));
    const SimResult r =
        run_simulation(p, p.identity_mapping(), quick_config());
    EXPECT_GT(r.packets_measured, 0u);
    EXPECT_FALSE(r.drain_incomplete);
    EXPECT_EQ(r.flits_injected, r.flits_ejected);
  }
}

// Bit-exact pin of a simulated multicast run: the tree the traffic engine
// injects shares its branching step with the contention model
// (Contention.MulticastTreeLoadsArePinned). The same two chips: an
// irregular 2D MC set, and a stack with MCs on both dies.
TEST(SimMemoryModes, MulticastRunIsPinned) {
  struct Pin {
    const char* tag;
    Mesh mesh;
    std::vector<double> apl;  // per-app, hexfloat-exact
    std::uint64_t flits_injected;
    std::uint64_t packets_measured;
  };
  const Pin pins[] = {
      {"4x4-irregular-mcs", Mesh(4, 4, {1, 6, 11, 12}),
       {0x1.107fffffffff6p+4, 0x1.01c9fdd6f41d6p+4}, 13312, 5898},
      {"2x4x4-stack", Mesh(2, 4, 4, {0, 5, 19, 30}, 0.5),
       {0x1.3be4b17e4b177p+4, 0x1.34f128b6a448fp+4}, 29059, 13277},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.tag);
    const std::size_t half = pin.mesh.num_tiles() / 2;
    std::vector<Application> apps(2);
    apps[0].name = "light";
    apps[0].threads.assign(half, ThreadProfile{2.0, 0.8});
    apps[1].name = "heavy";
    apps[1].threads.assign(half, ThreadProfile{8.0, 1.5});
    const ObmProblem p(TileLatencyModel(pin.mesh, LatencyParams{},
                                        MemoryTrafficMode::kMulticast),
                       Workload(std::move(apps)));
    const SimResult r =
        run_simulation(p, p.identity_mapping(), quick_config());
    EXPECT_EQ(r.apl, pin.apl);
    EXPECT_EQ(r.flits_injected, pin.flits_injected);
    EXPECT_EQ(r.packets_measured, pin.packets_measured);
    EXPECT_FALSE(r.drain_incomplete);
  }
}

}  // namespace
}  // namespace nocmap
