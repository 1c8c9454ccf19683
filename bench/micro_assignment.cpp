// Microbenchmark of the assignment kernel's solve modes, emitting the
// committed perf baselines BENCH_assignment.json and BENCH_mappers.json:
// the `assignment` and `mappers` sections of this bench's RunReport.
//
// Three modes are timed per instance size n ∈ {16, 64, 144, 256} (square
// meshes of side 4/8/12/16, Table-3 C1 workloads):
//
//  * cold    — a fresh AssignmentWorkspace solving through the lazy
//              CostView (no matrix copy, but scratch allocated per solve).
//  * cached  — one reused workspace, cold potentials: the steady state of a
//              long-lived solver with zero heap traffic per call.
//  * warm    — one reused workspace re-solving the identical instance with
//              carried column potentials. No caller re-solves an identical
//              instance, so this is the warm start's best case, not what
//              the online service sees (benchmark/'s service-churn
//              workload times that path).
//
// Each mode reports best-of-3 adaptive batches as `assignment.n<N>.<mode>_ns`
// (ns/solve). The mapper table times end-to-end map() calls (best of 5) per
// paper mapper plus GA on the canonical 8x8 C1 problem as
// `mappers.<name>.map_ms`. Optional argv[1] is the output directory
// (default ".").
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/genetic_mapper.h"
#include "core/sam.h"
#include "obs/run_report.h"
#include "util/rng.h"

namespace {

using namespace nocmap;

// Accumulated solve costs; printed so the optimizer cannot drop the solves.
double g_sink = 0.0;

/// Best-of-3 batches, each batch grown until it runs >= 20 ms.
template <typename F>
double ns_per_call(F&& f) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up (first-use allocations, caches)
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < 3; ++batch) {
    std::size_t reps = 4;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < reps; ++i) f();
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                               t0)
              .count());
      if (ns >= 2e7 || reps >= (1u << 22)) {
        best = std::min(best, ns / static_cast<double>(reps));
        break;
      }
      reps *= 4;
    }
  }
  return best;
}

/// Times the three solve modes at one mesh size and records them as the
/// `assignment.n<N>.*` report fields.
void bench_size(std::uint32_t side) {
  const Mesh mesh = Mesh::square(side);
  const std::size_t n = mesh.num_tiles();
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = n / 4;
  const ObmProblem problem(
      TileLatencyModel(mesh, LatencyParams{}),
      synthesize_workload(parsec_config("C1"), bench::kWorkloadSeed, opt));
  const ThreadCostCache cache(problem.workload(), problem.model());

  std::vector<TileId> tiles(n);
  std::iota(tiles.begin(), tiles.end(), TileId{0});
  const CostView view = cache.sam_view(0, tiles);

  const double cold_ns = ns_per_call([&] {
    AssignmentWorkspace ws;
    g_sink += ws.solve(view).total_cost;
  });
  AssignmentWorkspace cached;
  const double cached_ns =
      ns_per_call([&] { g_sink += cached.solve(view).total_cost; });
  AssignmentWorkspace warm;
  warm.solve(view);  // prime the potentials
  const double warm_ns =
      ns_per_call([&] { g_sink += warm.solve_warm(view).total_cost; });

  std::cout << "n=" << n << "  cold=" << cold_ns / 1e3
            << "us  cached=" << cached_ns / 1e3 << "us  warm=" << warm_ns / 1e3
            << "us\n";
  obs::RunReport& report = obs::RunReport::global();
  const std::string prefix = "assignment.n" + std::to_string(n);
  report.set(prefix + ".cold_ns", cold_ns);
  report.set(prefix + ".cached_ns", cached_ns);
  report.set(prefix + ".warm_ns", warm_ns);
}

struct BatchSweepResult {
  std::size_t k = 0;
  double ns_per_candidate = 0.0;
};

/// Amortization curve of BatchEvaluator::score_rows: ns per scored
/// candidate as the lane count K grows. K=1 is the degenerate
/// scalar-equivalent case; the curve flattening out shows where the
/// cost-row traversal is fully amortized across lanes (the mapper loops sit
/// at K=32–128).
std::vector<BatchSweepResult> bench_batch_eval() {
  const ObmProblem problem = bench::standard_problem("C1");
  const std::size_t n = problem.num_threads();
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator evaluator(problem, cache);
  Rng rng(bench::kAlgorithmSeed);

  std::vector<BatchSweepResult> results;
  for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                              std::size_t{128}}) {
    std::vector<TileId> rows(n * k);
    for (std::size_t b = 0; b < k; ++b) {
      const std::span<TileId> perm(rows.data() + b * n, n);
      std::iota(perm.begin(), perm.end(), TileId{0});
      rng.shuffle(perm);
    }
    std::vector<double> scores(k);
    const double ns = ns_per_call([&] {
      evaluator.score_rows(rows.data(), n, k, std::span<double>(scores));
      g_sink += scores[0];
    });
    results.push_back({k, ns / static_cast<double>(k)});
  }
  return results;
}

/// Best-of-5 end-to-end map() per mapper, recorded as
/// `mappers.<name>.map_ms`.
void bench_mappers() {
  using clock = std::chrono::steady_clock;
  const ObmProblem problem = bench::standard_problem("C1");

  std::vector<std::unique_ptr<Mapper>> mappers = bench::paper_mappers();
  GeneticParams ga;
  ga.seed = bench::kAlgorithmSeed;
  mappers.push_back(std::make_unique<GeneticMapper>(ga));

  for (const auto& mapper : mappers) {
    // Best-of-5: map() calls land around a millisecond, where scheduler
    // jitter fattens the upper tail enough to matter for the CI speedup
    // gate; two extra reps keep the minimum a stable estimator.
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = clock::now();
      const Mapping m = mapper->map(problem);
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count();
      g_sink += static_cast<double>(m.thread_to_tile.front());
      best = std::min(best, ms);
    }
    std::cout << mapper->name() << ": " << best << " ms/map\n";
    obs::RunReport::global().set("mappers." + mapper->name() + ".map_ms",
                                 best);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : ".";
  bench::print_header(
      "micro_assignment — assignment-kernel solve-mode timings",
      "perf baseline layer (DESIGN.md §8)");
  for (const std::uint32_t side : {4u, 8u, 12u, 16u}) bench_size(side);

  const std::vector<BatchSweepResult> sweep = bench_batch_eval();
  const double k1_ns = sweep.front().ns_per_candidate;
  for (const BatchSweepResult& s : sweep) {
    std::cout << "batch-eval K=" << s.k << ": " << s.ns_per_candidate
              << " ns/candidate ("
              << (s.ns_per_candidate > 0.0 ? k1_ns / s.ns_per_candidate : 0.0)
              << "x vs K=1)\n";
    const std::string prefix = "eval.batch.k" + std::to_string(s.k);
    obs::RunReport::global().set(prefix + ".ns_per_candidate",
                                 s.ns_per_candidate);
    obs::RunReport::global().set(prefix + ".speedup_vs_k1",
                                 s.ns_per_candidate > 0.0
                                     ? k1_ns / s.ns_per_candidate
                                     : 0.0);
  }

  bench_mappers();

  bench::save_baseline((out_dir / "BENCH_assignment.json").string(),
                       {"assignment"});
  bench::save_baseline((out_dir / "BENCH_mappers.json").string(), {"mappers"});
  std::cout << "(checksum " << g_sink << ")\n";
  return 0;
}
