// Figure 11 reproduction: dynamic NoC power of the four mapping algorithms,
// measured by replaying each mapping on the cycle-level simulator and
// feeding the activity counters into the DSENT-lite power model.
// Paper shape: SSS has negligible dynamic-power overhead vs Global
// (< 2.7%) and is slightly better than MC and SA.
//
// Two batch phases, both deterministic at any worker count: the 4x8
// mappings fan out across the parallel runner, then the 32 replays go
// through run_simulation_batch.
#include <iostream>

#include "bench_common.h"
#include "power/dsent_lite.h"

int main() {
  using namespace nocmap;
  bench::print_header("fig11_power — dynamic NoC power",
                      "paper Figure 11 (DSENT 45nm/1V power comparison)");

  const auto configs = parsec_table3_configs();
  constexpr std::size_t kMethods = 4;
  const char* method_names[kMethods] = {"Global", "MC", "SA", "SSS"};

  SimConfig sim_cfg;
  sim_cfg.warmup_cycles = 2000;
  sim_cfg.measure_cycles = 40000;

  std::vector<ObmProblem> problems;
  problems.reserve(configs.size());
  for (const ConfigSpec& spec : configs) {
    problems.push_back(bench::standard_problem(spec));
  }

  // Phase 1: (config, method) mappings are independent pure units.
  std::vector<Mapping> mappings(configs.size() * kMethods);
  ParallelTrialRunner runner(bench::bench_parallel_config());
  runner.for_each(mappings.size(), [&](std::size_t idx) {
    const std::size_t c = idx / kMethods;
    const std::size_t m = idx % kMethods;
    auto mappers = bench::paper_mappers();
    mappings[idx] = mappers[m]->map(problems[c]);
  });

  // Phase 2: replay every mapping on the cycle-level fabric in one batch.
  std::vector<BatchScenario> batch;
  batch.reserve(mappings.size());
  for (std::size_t idx = 0; idx < mappings.size(); ++idx) {
    batch.push_back({&problems[idx / kMethods], &mappings[idx], sim_cfg});
  }
  const std::vector<SimResult> results = bench::simulate_batch(batch);

  const DsentLitePowerModel power;
  std::vector<double> dynamic_mw(results.size(), 0.0);
  for (std::size_t idx = 0; idx < results.size(); ++idx) {
    const ObmProblem& problem = problems[idx / kMethods];
    dynamic_mw[idx] = power
                          .report(results[idx].activity,
                                  results[idx].measured_cycles,
                                  problem.mesh().num_tiles(),
                                  problem.mesh().num_directed_links())
                          .dynamic_mw;
  }

  TextTable t({"cfg", "Global [mW]", "MC [mW]", "SA [mW]", "SSS [mW]",
               "SSS vs Global"});
  std::vector<double> sums(kMethods, 0.0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<std::string> row{configs[c].name};
    for (std::size_t m = 0; m < kMethods; ++m) {
      sums[m] += dynamic_mw[c * kMethods + m];
      row.push_back(fmt(dynamic_mw[c * kMethods + m], 3));
    }
    row.push_back(fmt_percent(
        dynamic_mw[c * kMethods + 3] / dynamic_mw[c * kMethods + 0] - 1.0));
    t.add_row(row);
  }
  t.print(std::cout);

  std::cout << "\nAverage dynamic power overhead vs Global (paper: SSS "
               "< +2.7%, slightly better than MC and SA):\n";
  for (std::size_t m = 1; m < kMethods; ++m) {
    std::cout << "  " << method_names[m] << ": "
              << fmt_percent(sums[m] / sums[0] - 1.0) << "\n";
  }
  std::cout << "\nStatic power is identical across schemes ("
            << fmt(power
                       .report(ActivityCounters{}, 1, 64,
                               Mesh::square(8).num_directed_links())
                       .static_mw,
                   1)
            << " mW for the 8x8 fabric) and therefore not compared.\n";
  return 0;
}
