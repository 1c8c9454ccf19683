// Online mapping service (src/service/): replay determinism across worker
// counts, admission control, migration budgets, and the incremental
// objective vs the batch evaluator.
#include "service/replay.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/metrics.h"
#include "netsim/sim.h"

namespace nocmap::service {
namespace {

TileLatencyModel test_chip() {
  return TileLatencyModel(Mesh::square(6), LatencyParams{});
}

std::vector<Event> test_trace(std::size_t num_events,
                              std::uint64_t seed = 21) {
  TraceConfig config;
  config.seed = seed;
  config.num_events = num_events;
  config.num_tiles = 36;
  config.max_threads_per_app = 9;
  return generate_trace(config);
}

Application uniform_app(const std::string& name, std::size_t threads,
                        double cache_rate = 20.0, double memory_rate = 4.0) {
  Application app;
  app.name = name;
  app.threads.assign(threads, ThreadProfile{cache_rate, memory_rate});
  return app;
}

Event arrival(std::uint64_t id, Application app) {
  return Event{EventKind::kArrival, id, std::move(app)};
}

// --------------------------------------------------------------------------
// Determinism

TEST(ServiceReplay, DecisionsBitIdenticalAcrossWorkerCounts) {
  // A tight threshold keeps the fallback (the only parallel component)
  // firing throughout the replay, so the worker sweep exercises the
  // parallel SSS engine, not just the serial incremental path.
  const std::vector<Event> events = test_trace(120);
  std::vector<ReplayStats> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ServiceConfig config;
    config.migration_budget = 6;
    config.degradation_threshold = 1.05;
    config.sss.parallel = {workers};
    MappingService engine(test_chip(), config);
    runs.push_back(replay_trace(engine, events));
  }
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_GT(runs[0].fallbacks, 0u)
      << "threshold never tripped — the worker sweep tested nothing";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].digest, runs[i].digest);
    ASSERT_EQ(runs[0].decisions.size(), runs[i].decisions.size());
    for (std::size_t e = 0; e < runs[0].decisions.size(); ++e) {
      EXPECT_EQ(runs[0].decisions[e], runs[i].decisions[e])
          << "decision " << e << " diverged at worker count "
          << (i == 1 ? 2 : 8);
    }
  }
}

TEST(ServiceReplay, ReplayIsRunToRunDeterministic) {
  const std::vector<Event> events = test_trace(100, 33);
  ServiceConfig config;
  config.migration_budget = 4;
  MappingService a(test_chip(), config);
  MappingService b(test_chip(), config);
  EXPECT_EQ(replay_trace(a, events).digest, replay_trace(b, events).digest);
}

// --------------------------------------------------------------------------
// Admission control

TEST(Service, RejectsArrivalWhenChipFull) {
  MappingService engine(test_chip());
  const Decision big = engine.handle(arrival(1, uniform_app("big", 36)));
  EXPECT_TRUE(big.accepted);
  EXPECT_EQ(big.placed_threads, 36u);
  EXPECT_EQ(engine.occupied_tiles(), 36u);

  const Decision overflow =
      engine.handle(arrival(2, uniform_app("late", 1)));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(engine.occupied_tiles(), 36u);
  EXPECT_EQ(engine.residents().size(), 1u);

  // Free the chip and the same arrival is admitted.
  engine.handle(Event{EventKind::kDeparture, 1, {}});
  EXPECT_EQ(engine.occupied_tiles(), 0u);
  EXPECT_TRUE(engine.handle(arrival(2, uniform_app("late", 1))).accepted);
}

TEST(Service, RejectsOversizedEmptyAndDuplicateArrivals) {
  MappingService engine(test_chip());
  EXPECT_FALSE(engine.handle(arrival(1, uniform_app("huge", 37))).accepted);
  EXPECT_FALSE(engine.handle(arrival(2, uniform_app("empty", 0))).accepted);
  EXPECT_TRUE(engine.handle(arrival(3, uniform_app("ok", 4))).accepted);
  EXPECT_FALSE(engine.handle(arrival(3, uniform_app("dup", 4))).accepted);
  EXPECT_EQ(engine.residents().size(), 1u);
}

TEST(Service, RejectsUnknownOrMismatchedPhaseChange) {
  MappingService engine(test_chip());
  engine.handle(arrival(1, uniform_app("app", 6)));
  EXPECT_FALSE(
      engine.handle(Event{EventKind::kPhaseChange, 9, uniform_app("x", 6)})
          .accepted);
  EXPECT_FALSE(
      engine.handle(Event{EventKind::kPhaseChange, 1, uniform_app("x", 5)})
          .accepted);
  EXPECT_TRUE(
      engine.handle(Event{EventKind::kPhaseChange, 1,
                          uniform_app("x", 6, 5.0, 30.0)})
          .accepted);
  EXPECT_FALSE(
      engine.handle(Event{EventKind::kDeparture, 9, {}}).accepted);
}

TEST(Service, RejectsNonFiniteRates) {
  // Such rates have no finite mapping cost; the event is rejected like any
  // other invalid one, with the chip state unchanged.
  MappingService engine(test_chip());
  Application inf_app = uniform_app("inf", 4);
  inf_app.threads[0].cache_rate = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine.handle(arrival(1, inf_app)).accepted);
  EXPECT_EQ(engine.residents().size(), 0u);
  EXPECT_EQ(engine.occupied_tiles(), 0u);

  ASSERT_TRUE(engine.handle(arrival(2, uniform_app("ok", 4))).accepted);
  const Resident before = engine.residents()[0];
  Application nan_phase = uniform_app("ok", 4, 5.0, 30.0);
  nan_phase.threads[2].memory_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      engine.handle(Event{EventKind::kPhaseChange, 2, nan_phase}).accepted);
  ASSERT_EQ(engine.residents().size(), 1u);
  EXPECT_EQ(engine.residents()[0].tiles, before.tiles);
  EXPECT_EQ(engine.residents()[0].app.threads[2].memory_rate,
            before.app.threads[2].memory_rate);
}

// --------------------------------------------------------------------------
// Migration budget

TEST(Service, BudgetZeroNeverMovesResidentThreads) {
  const std::vector<Event> events = test_trace(150, 9);
  ServiceConfig config;
  config.migration_budget = 0;
  MappingService engine(test_chip(), config);
  const ReplayStats stats = replay_trace(engine, events);
  EXPECT_EQ(stats.moved_threads, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);  // no budget, no fallback to spend it on
}

TEST(Service, BudgetCapsEveryDecision) {
  const std::vector<Event> events = test_trace(150, 13);
  ServiceConfig config;
  config.migration_budget = 3;
  config.degradation_threshold = 1.05;  // make the fallback compete for it
  MappingService engine(test_chip(), config);
  const ReplayStats stats = replay_trace(engine, events);
  for (std::size_t e = 0; e < stats.decisions.size(); ++e) {
    EXPECT_LE(stats.decisions[e].moved_threads, 3u) << "event " << e;
  }
}

// --------------------------------------------------------------------------
// Objective bookkeeping

TEST(Service, ObjectiveMatchesBatchEvaluator) {
  const std::vector<Event> events = test_trace(80, 17);
  MappingService engine(test_chip());
  replay_trace(engine, events);
  ASSERT_FALSE(engine.residents().empty());

  const ObmProblem snapshot = engine.snapshot_problem();
  const Mapping placement = engine.snapshot_mapping();
  ASSERT_TRUE(placement.is_valid_permutation(36));
  const LatencyReport report = evaluate(snapshot, placement);
  EXPECT_NEAR(engine.objective(), report.max_apl,
              1e-9 * (1.0 + report.max_apl));
  EXPECT_LE(engine.lower_bound(),
            engine.objective() * (1.0 + 1e-9));
}

TEST(Service, SimulateSnapshotMatchesDirectSimAndIsWorkerInvariant) {
  // The cycle-accurate validation of the final placement (run_simulation
  // on the service's snapshot, as nocmap_service_replay --simulate runs
  // it) must be bit-identical whether the one simulation is stepped
  // serially or spatially partitioned.
  MappingService service(test_chip(), ServiceConfig{});
  const std::vector<Event> events = test_trace(200);
  replay_trace(service, events);
  const ObmProblem problem = service.snapshot_problem();
  const Mapping mapping = service.snapshot_mapping();

  SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 1500;
  const SimResult direct = run_simulation(problem, mapping, config);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    config.sim_workers = workers;
    const SimResult sim = run_simulation(problem, mapping, config);
    EXPECT_EQ(sim.g_apl, direct.g_apl);
    EXPECT_EQ(sim.max_apl, direct.max_apl);
    EXPECT_EQ(sim.packets_measured, direct.packets_measured);
    EXPECT_EQ(sim.flits_injected, direct.flits_injected);
    EXPECT_EQ(sim.flits_ejected, direct.flits_ejected);
  }
}

TEST(Service, TraceGeneratorIsDeterministicAndCapacityAware) {
  TraceConfig config;
  config.seed = 77;
  config.num_events = 300;
  config.num_tiles = 36;
  const std::vector<Event> a = generate_trace(config);
  const std::vector<Event> b = generate_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].app_id, b[i].app_id);
    EXPECT_EQ(a[i].app.num_threads(), b[i].app.num_threads());
  }
  // Departures and phase changes always reference an application that a
  // replaying service will actually have admitted.
  MappingService engine(test_chip());
  const ReplayStats stats = replay_trace(engine, a);
  for (std::size_t i = 0; i < stats.decisions.size(); ++i) {
    if (a[i].kind != EventKind::kArrival) {
      EXPECT_TRUE(stats.decisions[i].accepted)
          << event_kind_name(a[i].kind) << " " << i
          << " referenced a non-resident application";
    }
  }
}

}  // namespace
}  // namespace nocmap::service
