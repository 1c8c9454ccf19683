// google-benchmark microbenchmarks of the algorithmic building blocks:
// Hungarian assignment scaling, the four mappers, and the incremental
// evaluator — backing the paper's O(N^3) complexity claim with measured
// scaling (Section IV.B).
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "assign/hungarian.h"
#include "core/annealing_mapper.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "core/global_mapper.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace {

using namespace nocmap;

CostMatrix random_cost(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CostMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m.at(r, c) = rng.uniform(0.0, 100.0);
  }
  return m;
}

ObmProblem problem_for_mesh(std::uint32_t side) {
  const Mesh mesh = Mesh::square(side);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 1, opt));
}

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CostMatrix cost = random_cost(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_assignment(cost));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_GlobalMapper(benchmark::State& state) {
  const ObmProblem problem =
      problem_for_mesh(static_cast<std::uint32_t>(state.range(0)));
  GlobalMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(problem));
  }
  state.SetComplexityN(
      static_cast<std::int64_t>(problem.num_tiles()));
}
BENCHMARK(BM_GlobalMapper)->DenseRange(4, 16, 4)->Complexity();

void BM_SssMapper(benchmark::State& state) {
  const ObmProblem problem =
      problem_for_mesh(static_cast<std::uint32_t>(state.range(0)));
  SortSelectSwapMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(problem));
  }
  state.SetComplexityN(
      static_cast<std::int64_t>(problem.num_tiles()));
}
BENCHMARK(BM_SssMapper)->DenseRange(4, 16, 4)->Complexity();

void BM_MonteCarloPerTrial(benchmark::State& state) {
  const ObmProblem problem = problem_for_mesh(8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    MonteCarloMapper mapper(64, ++seed, ParallelConfig::serial_config());
    benchmark::DoNotOptimize(mapper.map(problem));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MonteCarloPerTrial);

void BM_AnnealingPerIteration(benchmark::State& state) {
  const ObmProblem problem = problem_for_mesh(8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    AnnealingMapper mapper(
        AnnealingParams{.iterations = 4096, .seed = ++seed});
    benchmark::DoNotOptimize(mapper.map(problem));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_AnnealingPerIteration);

void BM_EvaluatorSwap(benchmark::State& state) {
  const ObmProblem problem = problem_for_mesh(8);
  const ThreadCostCache cache(problem.workload(), problem.model());
  MappingEvaluator eval(problem, problem.identity_mapping(), cache);
  Rng rng(7);
  const auto n = static_cast<std::uint32_t>(problem.num_threads());
  for (auto _ : state) {
    eval.swap_threads(rng.uniform_u32(n), rng.uniform_u32(n));
    benchmark::DoNotOptimize(eval.max_apl());
  }
}
BENCHMARK(BM_EvaluatorSwap);

void BM_FullEvaluate(benchmark::State& state) {
  const ObmProblem problem = problem_for_mesh(8);
  const Mapping m = problem.identity_mapping();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(problem, m));
  }
}
BENCHMARK(BM_FullEvaluate);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): print_header bootstraps the
// RunReport (wall time + metrics JSON under bench_results/), so this binary
// shows up in the observability layer like every other bench.
int main(int argc, char** argv) {
  nocmap::bench::print_header(
      "micro_algorithms — building-block microbenchmarks",
      "complexity claims of paper Section IV.B");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
