// Outside-in layer probes: each layer's public entry point, timed on the
// chips and simulations of the workload under test. Every workload hands
// the probes its own inputs, so each per-layer metric is measured on every
// workload at that workload's scale.
#include <algorithm>
#include <numeric>
#include <optional>

#include "assign/hungarian.h"
#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/metrics.h"
#include "harness.h"
#include "util/rng.h"

namespace nocmap::bench {

namespace {

/// Lanes per batched-scoring probe: the block width the MC and GA callers
/// score at.
constexpr std::size_t kBatchLanes = 32;
/// Cost-table reads per batched-scoring probe; sets its repeat count so a
/// probe lasts about a millisecond at any chip size.
constexpr std::size_t kBatchReads = 4'000'000;

/// Median of a sample (the upper middle for even sizes; 0 when empty).
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

struct CoreSample {
  double build_us = 0.0;
  double ns_per_candidate = 0.0;
  double evaluate_us = 0.0;
  double cold_solve_us = 0.0;
  double warm_solve_us = 0.0;
};

CoreSample probe_chip(const MappedChip& chip, Rng& rng) {
  const ObmProblem& problem = *chip.problem;
  const Mapping& mapping = *chip.mapping;
  const std::size_t n = problem.num_threads();
  CoreSample s;

  std::optional<ThreadCostCache> cache;
  s.build_us = us(timed_ns("probe.cost_cache", [&] {
    cache.emplace(problem.workload(), problem.model());
  }));

  const BatchEvaluator scorer(problem, *cache);
  CandidateBatch batch(n, kBatchLanes);
  std::vector<TileId> perm(n);
  std::iota(perm.begin(), perm.end(), TileId{0});
  for (std::size_t lane = 0; lane < kBatchLanes; ++lane) {
    rng.shuffle(perm);
    batch.load(lane, perm);
  }
  std::vector<double> scores(kBatchLanes);
  const std::size_t reps =
      std::max<std::size_t>(1, kBatchReads / (n * kBatchLanes));
  const std::uint64_t batch_ns = timed_ns("probe.batch_eval", [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      scorer.score(batch, kBatchLanes, scores);
    }
  });
  s.ns_per_candidate =
      static_cast<double>(batch_ns) / static_cast<double>(reps * kBatchLanes);

  s.evaluate_us = us(timed_ns("probe.evaluate", [&] {
    evaluate(problem, mapping);
  }));

  // Application 0's SAM instance over the tiles it occupies, solved cold;
  // then the neighbouring instance with one tile traded for application 1's
  // solved warm — the shape of SSS's final per-application repair.
  const nocmap::Workload& workload = problem.workload();
  const std::size_t first = workload.first_thread(0);
  std::vector<TileId> tiles(
      mapping.thread_to_tile.begin() + static_cast<std::ptrdiff_t>(first),
      mapping.thread_to_tile.begin() +
          static_cast<std::ptrdiff_t>(workload.last_thread(0)));
  AssignmentWorkspace ws;
  s.cold_solve_us = us(timed_ns("probe.assign_cold", [&] {
    ws.solve(cache->sam_view(first, tiles));
  }));
  if (workload.num_applications() > 1) {
    tiles.front() = mapping.tile_of(workload.first_thread(1));
  }
  s.warm_solve_us = us(timed_ns("probe.assign_warm", [&] {
    ws.solve_warm(cache->sam_view(first, tiles));
  }));
  return s;
}

/// Host time per phase and the conservation counts of one stepped run.
struct SteppedRun {
  std::uint64_t setup_ns = 0;
  std::uint64_t generate_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t ejection_ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_measured = 0;
  std::uint64_t boundary_flits = 0;
};

/// Makes run_simulation's calls — Network and TrafficEngine construction,
/// then generate → step → take_ejections/on_ejection per cycle through the
/// warmup, the measured window and the drain — and times each phase.
SteppedRun run_stepped(const SimScenario& scenario, std::size_t workers) {
  const ObmProblem& problem = *scenario.chip.problem;
  const SimConfig& config = scenario.config;
  SteppedRun r;
  std::optional<Network> net;
  std::optional<TrafficEngine> traffic;
  r.setup_ns = timed_ns("probe.netsim_setup", [&] {
    net.emplace(problem.mesh(), config.network, workers);
    TrafficConfig traffic_config = config.traffic;
    traffic_config.memory_mode = problem.model().mode();
    traffic.emplace(problem, *scenario.chip.mapping, traffic_config);
  });

  const Cycle measure_start = config.warmup_cycles;
  const Cycle measure_end = config.warmup_cycles + config.measure_cycles;
  std::vector<LocalAccess> locals;
  auto cycle_of = [&](Cycle generate_at, bool measuring) {
    locals.clear();
    std::uint64_t t0 = now_ns();
    traffic->generate(*net, generate_at, locals);
    std::uint64_t t1 = now_ns();
    r.generate_ns += t1 - t0;
    if (measuring) r.packets_measured += locals.size();
    net->step();
    t0 = now_ns();
    r.step_ns += t0 - t1;
    for (const Ejection& e : net->take_ejections()) {
      traffic->on_ejection(*net, e, net->now());
      if (e.info.created >= measure_start && e.info.created < measure_end) {
        ++r.packets_measured;
      }
    }
    r.ejection_ns += now_ns() - t0;
  };

  const std::uint64_t start = now_ns();
  Cycle cycle = 0;
  for (; cycle < measure_start; ++cycle) cycle_of(cycle, false);
  net->reset_activity();
  for (; cycle < measure_end; ++cycle) cycle_of(cycle, true);
  net->snapshot_activity();
  traffic->stop_generation();
  Cycle drained = 0;
  while ((net->packets_in_flight() > 0 || !traffic->idle()) &&
         drained < config.max_drain_cycles) {
    cycle_of(net->now(), false);
    ++drained;
  }
  obs::trace_emit("probe.netsim_stepped", start, now_ns() - start);
  r.cycles = measure_end + drained;
  r.flits_injected = net->flits_injected();
  r.flits_ejected = net->flits_ejected();
  r.boundary_flits = net->boundary_flits();
  return r;
}

}  // namespace

void run_layer_probes(const ProbeInputs& inputs, std::uint64_t seed,
                      std::size_t nproc, Ledger& ledger, Layers& layers) {
  Rng rng(seed);
  std::vector<double> build, per_candidate, eval, cold, warm;
  for (const MappedChip& chip : inputs.chips) {
    const CoreSample s = probe_chip(chip, rng);
    build.push_back(s.build_us);
    per_candidate.push_back(s.ns_per_candidate);
    eval.push_back(s.evaluate_us);
    cold.push_back(s.cold_solve_us);
    warm.push_back(s.warm_solve_us);
  }
  layers["core.cost_cache.build_us"] = median(build);
  layers["core.batch_eval.ns_per_candidate"] = median(per_candidate);
  layers["core.evaluate_us"] = median(eval);
  layers["assign.cold_solve_us"] = median(cold);
  layers["assign.warm_solve_us"] = median(warm);

  std::vector<double> setup, generate, step, ejection, per_flit;
  std::vector<double> cycles, flits, packets, link_util, sim_max_apl;
  for (const SimScenario& s : inputs.scenarios) {
    const SimResult reference =
        run_simulation(*s.chip.problem, *s.chip.mapping, s.config);
    const SteppedRun r = run_stepped(s, s.config.sim_workers);
    ledger.check(r.flits_injected == reference.flits_injected &&
                     r.flits_ejected == reference.flits_ejected &&
                     r.packets_measured == reference.packets_measured,
                 "stepped netsim loop disagrees with run_simulation");
    setup.push_back(ms(r.setup_ns));
    generate.push_back(ms(r.generate_ns));
    step.push_back(ms(r.step_ns));
    ejection.push_back(ms(r.ejection_ns));
    per_flit.push_back(static_cast<double>(r.step_ns) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, r.flits_injected)));
    cycles.push_back(static_cast<double>(r.cycles));
    flits.push_back(static_cast<double>(r.flits_injected));
    packets.push_back(static_cast<double>(r.packets_measured));
    link_util.push_back(reference.load.link_utilization);
    sim_max_apl.push_back(reference.max_apl);
  }
  layers["netsim.setup_ms"] = median(setup);
  layers["netsim.traffic.generate_ms"] = median(generate);
  layers["netsim.network.step_ms"] = median(step);
  layers["netsim.ejection_ms"] = median(ejection);
  layers["netsim.step_ns_per_flit"] = median(per_flit);
  layers["netsim.cycles"] = mean(cycles);
  layers["netsim.flits_injected"] = mean(flits);
  layers["netsim.packets_measured"] = mean(packets);
  layers["netsim.link_utilization"] = mean(link_util);
  layers["netsim.sim_max_apl"] = mean(sim_max_apl);

  // Partition sweep at 1, 2 and N = min(4, nproc) workers, never more
  // workers than the machine has.
  const std::size_t widths[] = {1, std::min<std::size_t>(2, nproc),
                                std::min<std::size_t>(4, nproc)};
  const char* names[] = {"netsim.partition.step_ms.w1",
                         "netsim.partition.step_ms.w2",
                         "netsim.partition.step_ms.wN"};
  SteppedRun widest;
  for (std::size_t i = 0; i < 3; ++i) {
    widest = run_stepped(inputs.scenarios.front(), widths[i]);
    layers[names[i]] = ms(widest.step_ns);
  }
  layers["netsim.partition.speedup"] = layers["netsim.partition.step_ms.w1"] /
                                       layers["netsim.partition.step_ms.wN"];
  layers["netsim.partition.boundary_flits"] =
      static_cast<double>(widest.boundary_flits);
}

}  // namespace nocmap::bench
