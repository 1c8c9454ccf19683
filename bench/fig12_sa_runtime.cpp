// Figure 12 reproduction: simulated-annealing solution quality as a
// function of allowed runtime, normalized to the runtime of SSS.
// Paper shape: SA's max-APL falls with runtime but with diminishing
// returns, and SSS still wins even when SA is given 100x its runtime.
#include <algorithm>
#include <chrono>
#include <numeric>
#include <iostream>

#include "bench_common.h"

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main() {
  using namespace nocmap;
  bench::print_header("fig12_sa_runtime — SA quality vs runtime",
                      "paper Figure 12");

  const auto configs = parsec_table3_configs();

  // 1. SSS runtime and quality per configuration.
  double sss_seconds = 0.0;
  std::vector<double> sss_max_apl(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const ObmProblem problem = bench::standard_problem(configs[c]);
    SortSelectSwapMapper sss;
    Mapping m;
    sss_seconds += seconds_of([&] { m = sss.map(problem); });
    sss_max_apl[c] = evaluate(problem, m).max_apl;
  }
  sss_seconds /= static_cast<double>(configs.size());

  // 2. Calibrate SA iteration throughput.
  const ObmProblem cal_problem = bench::standard_problem(configs[0]);
  constexpr std::size_t kCalIters = 100000;
  AnnealingMapper calibrator(
      AnnealingParams{.iterations = kCalIters, .seed = 1});
  const double cal_seconds =
      seconds_of([&] { (void)calibrator.map(cal_problem); });
  const double iters_per_second =
      static_cast<double>(kCalIters) / std::max(cal_seconds, 1e-6);

  // 3. Sweep runtime ratios.
  const std::vector<double> ratios{0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
                                   100.0, 300.0, 1000.0};
  TextTable t({"SA runtime / SSS runtime", "SA iterations",
               "SA max-APL (avg)", "normalized to SSS"});
  const double sss_avg =
      std::accumulate(sss_max_apl.begin(), sss_max_apl.end(), 0.0) /
      static_cast<double>(configs.size());

  for (double ratio : ratios) {
    const auto iterations = static_cast<std::size_t>(std::clamp(
        ratio * sss_seconds * iters_per_second, 50.0, 5.0e6));
    // Per-configuration chains are independent pure units; shard them
    // across the deterministic runner (same results at any worker count).
    std::vector<double> results(configs.size(), 0.0);
    ParallelTrialRunner runner(ParallelConfig::from_env());
    runner.for_each(configs.size(), [&](std::size_t c) {
      const ObmProblem problem = bench::standard_problem(configs[c]);
      AnnealingMapper sa(AnnealingParams{
          .iterations = iterations, .seed = bench::kAlgorithmSeed + c});
      results[c] = evaluate(problem, sa.map(problem)).max_apl;
    });
    const double sa_avg =
        std::accumulate(results.begin(), results.end(), 0.0) /
        static_cast<double>(configs.size());
    t.add_row({fmt(ratio, 1), std::to_string(iterations), fmt(sa_avg, 3),
               fmt(sa_avg / sss_avg, 4)});
  }
  t.print(std::cout);

  std::cout << "\nSSS reference: avg max-APL " << fmt(sss_avg, 3)
            << " in ~" << fmt(sss_seconds * 1e3, 2)
            << " ms per configuration.\n"
            << "Paper shape: diminishing returns; values above 1.0 mean SA "
               "is still behind SSS at that runtime budget.\n";
  return 0;
}
