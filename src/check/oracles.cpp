#include "check/oracles.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "assign/hungarian.h"
#include "core/annealing_mapper.h"
#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "core/exact_solver.h"
#include "core/genetic_mapper.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/random_mapper.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "service/replay.h"
#include "util/rng.h"

namespace nocmap::check {

namespace {

/// Relative closeness for quantities that are the same computation run
/// through two code paths (FP association may differ, true disagreement is
/// orders of magnitude larger).
bool rel_close(double a, double b, double rel = 1e-9) {
  return std::abs(a - b) <= rel * std::max({std::abs(a), std::abs(b), 1.0});
}

OracleResult fail(std::string detail) { return {false, std::move(detail)}; }

/// The mapper roster the differential oracles cross-check. Budgets are
/// deliberately small — fuzzing wants many scenarios over polished
/// solutions — and all seeds derive from the scenario seed so a spec fully
/// determines every mapper's output. The mappers' default one-worker
/// execution keeps oracle runs cheap under sanitizers (the engine is
/// thread-count-invariant anyway).
std::vector<std::unique_ptr<Mapper>> scenario_mappers(
    const ScenarioSpec& spec) {
  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.push_back(std::make_unique<GlobalMapper>());
  mappers.push_back(
      std::make_unique<MonteCarloMapper>(256, spec.seed ^ 0x4d43ULL));
  AnnealingParams sa;
  sa.iterations = 4000;
  sa.seed = spec.seed ^ 0x5341ULL;
  mappers.push_back(std::make_unique<AnnealingMapper>(sa));
  mappers.push_back(std::make_unique<SortSelectSwapMapper>());
  GeneticParams ga;
  ga.population = 24;
  ga.generations = 40;
  ga.seed = spec.seed ^ 0x4741ULL;
  mappers.push_back(std::make_unique<GeneticMapper>(ga));
  return mappers;
}

bool always(const ScenarioSpec&) { return true; }

// ---------------------------------------------------------------------------
// mapper_sanity

OracleResult run_mapper_sanity(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);

  // Cost-cache coherence: the memoized matrix must equal eq. 13 recomputed
  // from the raw model. This is the oracle the mutation canary trips.
  const ThreadCostCache cache(problem.workload(), problem.model());
  const TileLatencyModel& model = problem.model();
  for (std::size_t j = 0; j < problem.num_threads(); ++j) {
    const ThreadProfile& t = problem.workload().thread(j);
    for (TileId k = 0; k < problem.num_tiles(); ++k) {
      const double expected =
          t.cache_rate * model.tc(k) + t.memory_rate * model.tm(k);
      if (!rel_close(cache.cost(j, k), expected, 1e-12)) {
        std::ostringstream os;
        os << "cost cache incoherent at thread " << j << " tile " << k
           << ": cached " << cache.cost(j, k) << " vs model " << expected;
        return fail(os.str());
      }
    }
  }

  for (const auto& mapper : scenario_mappers(spec)) {
    const Mapping mapping = mapper->map(problem);
    if (!mapping.is_valid_permutation(problem.num_tiles())) {
      return fail(mapper->name() + " returned an invalid permutation");
    }

    // Live-mapping evaluator vs the from-scratch reference.
    const MappingEvaluator eval(problem, mapping, cache);
    const LatencyReport report = evaluate(problem, mapping);
    if (!rel_close(eval.max_apl(), report.max_apl)) {
      std::ostringstream os;
      os << mapper->name() << ": evaluator max-APL " << eval.max_apl()
         << " != evaluate() max-APL " << report.max_apl;
      return fail(os.str());
    }
  }

  // Evaluator purity: after a storm of incremental swaps the live state
  // must equal a from-scratch recomputation (the parallel engine's
  // bit-identity contract rests on this).
  MappingEvaluator eval(problem, problem.identity_mapping(), cache);
  Rng rng(spec.seed, 0x73776170ULL);
  const auto n = static_cast<std::uint32_t>(problem.num_threads());
  for (int i = 0; i < 64; ++i) {
    eval.swap_threads(rng.uniform_u32(n), rng.uniform_u32(n));
  }
  const double recomputed = evaluate(problem, eval.mapping()).max_apl;
  if (!rel_close(eval.max_apl(), recomputed)) {
    std::ostringstream os;
    os << "evaluator drifted after swap storm: incremental "
       << eval.max_apl() << " vs recomputed " << recomputed;
    return fail(os.str());
  }
  return {};
}

// ---------------------------------------------------------------------------
// global_gapl

OracleResult run_global_gapl(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);
  GlobalMapper global;
  const double global_g = evaluate(problem, global.map(problem)).g_apl;
  for (const auto& mapper : scenario_mappers(spec)) {
    const double other_g = evaluate(problem, mapper->map(problem)).g_apl;
    if (global_g > other_g * (1.0 + 1e-9)) {
      std::ostringstream os;
      os << "Global g-APL " << global_g << " exceeds " << mapper->name()
         << " g-APL " << other_g
         << " — Global's assignment solve is no longer optimal";
      return fail(os.str());
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// exact_bound

bool exact_applicable(const ScenarioSpec& spec) {
  return spec.num_tiles() <= 16;  // branch-and-bound territory
}

OracleResult run_exact_bound(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);
  ExactSolverOptions options;
  options.max_nodes = 2'000'000;
  const ExactResult exact = solve_obm_exact(problem, options);
  if (!exact.proven_optimal) return {};  // budget bound — nothing to assert
  if (!exact.mapping.is_valid_permutation(problem.num_tiles())) {
    return fail("exact solver returned an invalid permutation");
  }
  for (const auto& mapper : scenario_mappers(spec)) {
    const double objective =
        evaluate(problem, mapper->map(problem)).objective;
    if (objective < exact.max_apl * (1.0 - 1e-9)) {
      std::ostringstream os;
      os << mapper->name() << " objective " << objective
         << " beats the proven optimum " << exact.max_apl
         << " — one of the two objective evaluations is wrong";
      return fail(os.str());
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// hungarian

OracleResult run_hungarian(const ScenarioSpec& spec) {
  Rng rng(spec.seed, 0x68756e67ULL);
  AssignmentWorkspace workspace;
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 2 + rng.uniform_u32(7);  // 2..8 — n! reachable
    CostMatrix cost(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        cost.at(r, c) = rng.uniform(0.0, 100.0);
      }
    }
    const Assignment truth = solve_assignment_brute_force(cost);
    const double cold_cost = workspace.solve(CostView::of(cost)).total_cost;

    // Prime the warm path on a perturbed sibling instance, then re-solve
    // the original warm: carried potentials must not change the optimum.
    CostMatrix perturbed = cost;
    for (std::size_t r = 0; r < n; ++r) {
      perturbed.at(r, rng.uniform_u32(static_cast<std::uint32_t>(n))) +=
          rng.uniform(0.0, 5.0);
    }
    workspace.solve(CostView::of(perturbed));
    const Assignment& warm = workspace.solve_warm(CostView::of(cost));

    std::vector<bool> used(n, false);
    for (const std::size_t col : warm.row_to_col) {
      if (col >= n || used[col]) {
        return fail("warm assignment is not a permutation");
      }
      used[col] = true;
    }
    for (const auto& [label, value] :
         {std::pair<const char*, double>{"workspace-cold", cold_cost},
          {"workspace-warm", warm.total_cost}}) {
      if (!rel_close(value, truth.total_cost)) {
        std::ostringstream os;
        os << label << " assignment cost " << value
           << " != brute-force optimum " << truth.total_cost << " (n=" << n
           << ", round " << round << ")";
        return fail(os.str());
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// netsim oracles

bool netsim_applicable(const ScenarioSpec& spec) {
  // Simulator-unsupported topologies (torus wraparound) are classified as
  // inapplicable here — reaching the simulator would abort on its
  // NOCMAP_REQUIRE instead of failing the oracle. A tile cap keeps a fuzz
  // iteration in the tens of milliseconds while admitting small stacks
  // (2×4×4, 3×3×3, ...).
  return simulator_supported(spec) && spec.num_tiles() <= 32;
}

OracleResult run_netsim_conservation(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);
  SimConfig config;
  config.warmup_cycles = 0;  // counters then cover the whole run
  config.measure_cycles = 4000;
  config.traffic.seed = spec.seed;
  config.traffic.injection_scale = std::min(spec.injection_scale, 0.9);
  config.traffic.bursty = spec.bursty;
  const SimResult sim =
      run_simulation(problem, problem.identity_mapping(), config);

  if (sim.drain_incomplete) {
    return fail("drain phase hit its cap with packets still in flight");
  }
  if (sim.flits_injected != sim.flits_ejected) {
    std::ostringstream os;
    os << "flit conservation violated: injected " << sim.flits_injected
       << " != ejected " << sim.flits_ejected;
    return fail(os.str());
  }
  const ActivityCounters& total = sim.activity_with_drain;
  if (total.crossbar_traversals !=
      total.link_traversals + sim.flits_ejected) {
    std::ostringstream os;
    os << "crossbar identity violated: " << total.crossbar_traversals
       << " traversals != " << total.link_traversals << " link hops + "
       << sim.flits_ejected << " ejections";
    return fail(os.str());
  }
  if (total.buffer_writes != sim.flits_injected + total.link_traversals) {
    std::ostringstream os;
    os << "buffer-write identity violated: " << total.buffer_writes
       << " writes != " << sim.flits_injected << " injections + "
       << total.link_traversals << " link hops";
    return fail(os.str());
  }
  if (total.buffer_reads != total.buffer_writes) {
    std::ostringstream os;
    os << "flits left buffered after drain: " << total.buffer_writes
       << " writes vs " << total.buffer_reads << " reads";
    return fail(os.str());
  }

  // RouterLoadSummary vs the raw per-router counters it summarizes.
  const double cycles = static_cast<double>(sim.measured_cycles);
  const double tiles = static_cast<double>(problem.num_tiles());
  const double summed_crossbar =
      sim.load.mean_crossbar_per_cycle * tiles * cycles;
  if (!rel_close(summed_crossbar,
                 static_cast<double>(sim.activity.crossbar_traversals),
                 1e-6)) {
    std::ostringstream os;
    os << "RouterLoadSummary mean crossbar (" << summed_crossbar
       << " summed) disagrees with activity counters ("
       << sim.activity.crossbar_traversals << ")";
    return fail(os.str());
  }
  if (sim.load.max_crossbar_per_cycle + 1e-12 <
      sim.load.mean_crossbar_per_cycle) {
    return fail("per-router max crossbar rate below the mean");
  }
  // Independent recount of the directed links (planar per layer + TSVs),
  // deliberately not calling Mesh::num_directed_links().
  const Mesh& mesh = problem.mesh();
  const double links =
      2.0 * ((mesh.rows() * (mesh.cols() - 1) +
              mesh.cols() * (mesh.rows() - 1)) *
                 mesh.layers() +
             (mesh.layers() - 1) * mesh.rows() * mesh.cols());
  const double expected_util =
      static_cast<double>(sim.activity.link_traversals) / (links * cycles);
  if (!rel_close(sim.load.link_utilization, expected_util) ||
      sim.load.link_utilization < 0.0 ||
      sim.load.link_utilization > 1.0 + 1e-12) {
    std::ostringstream os;
    os << "link utilization " << sim.load.link_utilization
       << " inconsistent with counters (expected " << expected_util << ")";
    return fail(os.str());
  }
  return {};
}

// netsim_rank compares two mean latencies, so its window is sized by the
// samples it yields, not by cycles: a fixed 12,000-cycle window gave light
// scenarios 300-odd packets, where traffic noise alone crossed the 5%
// margin. Every request records at least two samples (itself and its
// reply; a multicast request one per tree segment), so a window of
// kRankSamples / (2 · scale · Σ rates) cycles yields at least kRankSamples
// in expectation. The window never shrinks below the old 12,000 cycles and
// is capped for scenarios with almost no traffic.
constexpr double kRankSamples = 3000.0;
constexpr Cycle kRankMinCycles = 12000;
constexpr Cycle kRankMaxCycles = 400000;

Cycle rank_window_cycles(const Workload& workload, double injection_scale) {
  double rate_sum = 0.0;  // requests per kilocycle
  for (const ThreadProfile& t : workload.threads()) rate_sum += t.total_rate();
  const double samples_per_cycle = 2.0 * injection_scale * rate_sum / 1000.0;
  if (samples_per_cycle * static_cast<double>(kRankMaxCycles) <=
      kRankSamples) {
    return kRankMaxCycles;
  }
  return std::max(kRankMinCycles, static_cast<Cycle>(std::ceil(
                                      kRankSamples / samples_per_cycle)));
}

OracleResult run_netsim_rank(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);
  GlobalMapper global;
  RandomMapper random(spec.seed ^ 0x726e64ULL);
  const Mapping good = global.map(problem);
  const Mapping bad = random.map(problem);

  const double analytic_good = evaluate(problem, good).g_apl;
  const double analytic_bad = evaluate(problem, bad).g_apl;
  // Only assert rank when the analytic model predicts a decisive gap —
  // Global is *optimal* on analytic g-APL, so ordering is guaranteed there;
  // small gaps may legitimately invert under queuing effects.
  if (analytic_bad <= analytic_good * 1.20) return {};

  SimConfig config;
  config.warmup_cycles = 2000;
  config.traffic.seed = spec.seed;  // paired traffic for both mappings
  config.traffic.injection_scale = std::min(spec.injection_scale, 0.9);
  config.traffic.bursty = spec.bursty;
  config.measure_cycles = rank_window_cycles(problem.workload(),
                                             config.traffic.injection_scale);
  const SimResult sim_good = run_simulation(problem, good, config);
  const SimResult sim_bad = run_simulation(problem, bad, config);
  if (sim_bad.g_apl < sim_good.g_apl * 0.95) {
    std::ostringstream os;
    os << "measured rank disagrees with the analytic model: analytic g-APL "
       << analytic_good << " (Global) vs " << analytic_bad
       << " (random), measured " << sim_good.g_apl << " vs " << sim_bad.g_apl;
    return fail(os.str());
  }
  return {};
}

// ---------------------------------------------------------------------------
// batch_eval

/// Differential check of every scoring path against evaluate(), the
/// from-scratch reference. The scorer advertises bit-identity with it on
/// unweighted problems (every scenario here is), so the comparisons are ==,
/// not rel_close: any rounding reordering introduced into the batch kernels
/// fails the fuzz campaign immediately.
OracleResult run_batch_eval(const ScenarioSpec& spec) {
  const ObmProblem problem = build_problem(spec);
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator batch_eval(problem, cache);
  const std::size_t n = problem.num_threads();
  Rng rng(spec.seed, 0x62617463ULL);

  // Batch sizes cover the degenerate single lane, ragged tails, and a full
  // multiple of the internal lane block.
  static constexpr std::size_t kBatchSizes[] = {1, 7, 32, 129};
  for (const std::size_t count : kBatchSizes) {
    // Candidate-major rows, the layout MC and GA score.
    std::vector<TileId> rows(count * n);
    for (std::size_t b = 0; b < count; ++b) {
      const std::vector<std::size_t> p = random_permutation(n, rng);
      std::copy(p.begin(), p.end(), &rows[b * n]);
    }

    std::vector<double> scores(count);
    batch_eval.score_rows(rows.data(), n, count, scores);
    for (std::size_t b = 0; b < count; ++b) {
      Mapping m;
      m.thread_to_tile.assign(&rows[b * n], &rows[b * n] + n);
      const double reference = evaluate(problem, m).objective;
      if (scores[b] != reference) {
        std::ostringstream os;
        os << "batch score[" << b << "] of " << count << " = " << scores[b]
           << " != evaluate() objective " << reference;
        return fail(os.str());
      }
    }
  }

  // score_group_candidates vs the mutating apply/revert probe it replaced
  // in the SSS window sweep: bit-identical by contract. Two groups, one
  // holding a thread of the application that attains objective() and one
  // drawn from the other threads, so can_improve() answers both ways. It
  // must answer false for the second group, and whenever it answers false
  // every candidate must score at least objective().
  {
    MappingEvaluator eval(problem, problem.identity_mapping(), cache);
    const auto un = static_cast<std::uint32_t>(n);
    for (int i = 0; i < 16; ++i) {
      eval.swap_threads(rng.uniform_u32(un), rng.uniform_u32(un));
    }
    // Thread range of the first application attaining objective() (empty
    // when no application has traffic).
    std::uint32_t top_first = 0;
    std::uint32_t top_last = 0;
    double top_term = -1.0;
    for (std::size_t s = 0; s < batch_eval.apps().size(); ++s) {
      const BatchEvaluator::App& app = batch_eval.apps()[s];
      const double term =
          app.weight *
          batch_eval.numerator(s, eval.mapping().thread_to_tile.data()) /
          app.volume;
      if (term > top_term) {
        top_term = term;
        top_first = app.first;
        top_last = app.last;
      }
    }
    const auto in_top = [&](std::size_t j) {
      return j >= top_first && j < top_last;
    };
    const std::size_t w = 2 + rng.uniform_u32(3);  // window of 2..4 threads
    for (const bool with_top : {true, false}) {
      if (with_top ? top_last == top_first
                   : n - (top_last - top_first) < w) {
        continue;
      }
      std::vector<std::size_t> threads;
      if (with_top) {
        threads.push_back(top_first + rng.uniform_u32(top_last - top_first));
      }
      while (threads.size() < w) {
        const std::size_t j = rng.uniform_u32(un);
        if (!with_top && in_top(j)) continue;
        if (std::find(threads.begin(), threads.end(), j) == threads.end()) {
          threads.push_back(j);
        }
      }
      const bool may_improve = eval.can_improve(threads);
      if (!with_top && may_improve) {
        return fail("can_improve() says yes for a group that leaves the "
                    "application attaining objective() untouched");
      }
      std::vector<TileId> held(w);
      for (std::size_t x = 0; x < w; ++x) {
        held[x] = eval.mapping().tile_of(threads[x]);
      }
      // All cyclic rotations of the held tiles, transposed position-major.
      const std::size_t count = w;
      std::vector<TileId> cands(w * count);
      for (std::size_t b = 0; b < count; ++b) {
        for (std::size_t x = 0; x < w; ++x) {
          cands[x * count + b] = held[(x + b) % w];
        }
      }
      std::vector<double> group_scores(count);
      eval.score_group_candidates(threads, cands.data(), count, group_scores);
      const double objective = eval.objective();
      std::vector<TileId> applied(w);
      for (std::size_t b = 0; b < count; ++b) {
        if (!may_improve && group_scores[b] < objective) {
          std::ostringstream os;
          os << "can_improve() says no, but score_group_candidates[" << b
             << "] = " << group_scores[b] << " < objective() " << objective;
          return fail(os.str());
        }
        for (std::size_t x = 0; x < w; ++x) applied[x] = cands[x * count + b];
        eval.apply_group(threads, applied);
        const double truth = eval.objective();
        eval.apply_group(threads, held);  // exact revert
        if (group_scores[b] != truth) {
          std::ostringstream os;
          os << "score_group_candidates[" << b << "] = " << group_scores[b]
             << " != apply_group objective " << truth;
          return fail(os.str());
        }
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// service_replay

OracleResult run_service_replay(const ScenarioSpec& spec) {
  // Derive a short churn trace and service configuration from the spec.
  // Budget and threshold sweep with the seed so the fuzzer covers the
  // identity (budget 0), tight, and unbounded regimes.
  service::TraceConfig trace;
  trace.seed = spec.seed;
  trace.num_events = 32;
  trace.num_tiles = spec.num_tiles();
  trace.min_threads_per_app = 1;
  trace.max_threads_per_app =
      std::max(2u, std::min(spec.threads_per_app * 2, spec.num_tiles()));
  trace.config = spec.config;
  const std::vector<service::Event> events = service::generate_trace(trace);

  const Mesh mesh = build_mesh(spec);
  const TileLatencyModel chip(mesh, LatencyParams{}, spec.traffic_mode);

  service::ServiceConfig config;
  static constexpr std::size_t kBudgets[] = {0, 1, 2, 4,
                                             static_cast<std::size_t>(-1)};
  config.migration_budget = kBudgets[(spec.seed >> 8) % 5];
  config.degradation_threshold =
      1.05 + 0.05 * static_cast<double>((spec.seed >> 16) % 5);
  service::MappingService engine(chip, config);

  // Worker-count differential: a sibling whose fallback SSS runs on two
  // workers must emit the identical decision stream (the engine's
  // bit-identity contract, checked event by event).
  service::ServiceConfig sibling_config = config;
  sibling_config.sss.parallel = {2};
  service::MappingService sibling(chip, sibling_config);

  SortSelectSwapMapper fresh_sss;

  const double theta = config.degradation_threshold;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const service::Event& event = events[i];
    const std::size_t free_tiles =
        engine.num_tiles() - engine.occupied_tiles();
    bool known = false;
    for (const service::Resident& r : engine.residents()) {
      known |= r.id == event.app_id;
    }

    const service::Decision d = engine.handle(event);
    const service::Decision d2 = sibling.handle(event);
    if (!(d == d2)) {
      std::ostringstream os;
      os << "event " << i << " (" << service::event_kind_name(event.kind)
         << " app " << event.app_id
         << "): 1-worker and 2-worker decisions differ — objective " << d.objective
         << " vs " << d2.objective << ", moved " << d.moved_threads << " vs "
         << d2.moved_threads;
      return fail(os.str());
    }

    // Budget compliance: a hard cap, incremental path and fallback combined.
    if (d.moved_threads > config.migration_budget) {
      std::ostringstream os;
      os << "event " << i << " moved " << d.moved_threads
         << " resident threads, over the budget of "
         << config.migration_budget;
      return fail(os.str());
    }

    // Admission law: an arrival is accepted iff it is non-empty, fits the
    // free tiles, and its id is fresh.
    if (event.kind == service::EventKind::kArrival) {
      const std::size_t n = event.app.num_threads();
      const bool should_admit = n > 0 && n <= free_tiles && !known;
      if (d.accepted != should_admit) {
        std::ostringstream os;
        os << "event " << i << ": arrival of " << n << " threads with "
           << free_tiles << " tiles free was "
           << (d.accepted ? "accepted" : "rejected") << ", expected the "
           << (should_admit ? "opposite" : "rejection");
        return fail(os.str());
      }
    }

    // Occupancy bookkeeping vs a from-scratch recompute off the residents.
    std::size_t resident_threads = 0;
    std::vector<std::uint64_t> rebuilt(engine.num_tiles(),
                                       service::MappingService::kFreeTile);
    for (const service::Resident& r : engine.residents()) {
      if (r.tiles.size() != r.app.num_threads()) {
        return fail("resident tile list out of sync with its thread count");
      }
      resident_threads += r.tiles.size();
      for (const TileId k : r.tiles) {
        if (k >= engine.num_tiles()) {
          std::ostringstream os;
          os << "event " << i << ": resident " << r.id
             << " placed on out-of-range tile " << k;
          return fail(os.str());
        }
        if (rebuilt[k] != service::MappingService::kFreeTile) {
          std::ostringstream os;
          os << "event " << i << ": tile " << k << " owned by residents "
             << rebuilt[k] << " and " << r.id;
          return fail(os.str());
        }
        rebuilt[k] = r.id;
      }
    }
    if (d.occupied_tiles != resident_threads ||
        engine.occupied_tiles() != resident_threads) {
      std::ostringstream os;
      os << "event " << i << ": occupancy counter "
         << engine.occupied_tiles() << " != " << resident_threads
         << " resident threads";
      return fail(os.str());
    }
    if (engine.occupancy() != rebuilt) {
      return fail("occupancy() map disagrees with the resident recompute");
    }

    if (engine.residents().empty()) continue;

    // Differential objective: the service's incrementally maintained
    // max-APL vs the batch evaluator on the snapshot instance.
    const ObmProblem snapshot = engine.snapshot_problem();
    const Mapping placement = engine.snapshot_mapping();
    if (!placement.is_valid_permutation(engine.num_tiles())) {
      std::ostringstream os;
      os << "event " << i << ": snapshot mapping is not a permutation";
      return fail(os.str());
    }
    const LatencyReport report = evaluate(snapshot, placement);
    if (!rel_close(d.objective, report.max_apl)) {
      std::ostringstream os;
      os << "event " << i << ": service objective " << d.objective
         << " != evaluate() max-APL " << report.max_apl;
      return fail(os.str());
    }

    // Quality contract. The relaxed lower bound under-approximates the
    // optimum, which a fresh SSS solve over-approximates, so
    //   lower_bound <= fresh always, and
    //   objective <= threshold * lower_bound <= threshold * fresh
    // whenever the service did not flag the decision degraded.
    if (d.accepted && i % 3 == 0) {
      const double fresh = evaluate(snapshot, fresh_sss.map(snapshot)).max_apl;
      if (d.lower_bound > fresh * (1.0 + 1e-9)) {
        std::ostringstream os;
        os << "event " << i << ": relaxed lower bound " << d.lower_bound
           << " exceeds the fresh SSS objective " << fresh
           << " — the bound is not a bound";
        return fail(os.str());
      }
      if (!d.quality_degraded &&
          d.objective > theta * fresh * (1.0 + 1e-9)) {
        std::ostringstream os;
        os << "event " << i << ": decision not flagged degraded but objective "
           << d.objective << " is beyond " << theta
           << "x the fresh SSS objective " << fresh;
        return fail(os.str());
      }
    }
  }
  return {};
}

constexpr Oracle kOracles[] = {
    {"mapper_sanity",
     "permutation validity, cost-cache coherence, evaluator purity",
     always, run_mapper_sanity},
    {"global_gapl",
     "Global's assignment-optimal g-APL lower-bounds every mapper",
     always, run_global_gapl},
    {"exact_bound",
     "heuristic objectives upper-bound the branch-and-bound optimum",
     exact_applicable, run_exact_bound},
    {"hungarian",
     "warm/cold/one-shot assignment solves match O(n!) brute force",
     always, run_hungarian},
    {"netsim_conservation",
     "flit conservation and load-summary identities on the cycle-level sim",
     netsim_applicable, run_netsim_conservation},
    {"netsim_rank",
     "measured g-APL ordering agrees with decisive analytic gaps",
     netsim_applicable, run_netsim_rank},
    {"service_replay",
     "online mapping service honors budget, quality bound and bookkeeping",
     always, run_service_replay},
    {"batch_eval",
     "batched candidate scoring bit-matches the scalar evaluator",
     always, run_batch_eval},
};

}  // namespace

std::span<const Oracle> all_oracles() { return kOracles; }

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& oracle : kOracles) {
    if (name == oracle.name) return &oracle;
  }
  return nullptr;
}

}  // namespace nocmap::check
