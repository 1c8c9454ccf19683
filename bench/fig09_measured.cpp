// Figure 9 / Table 4, measured edition. The paper's APLs come from
// full-system simulation (Garnet), not from the analytic model its
// algorithms optimize. This bench replays all four algorithms' mappings on
// the cycle-level simulator and reports *measured* max-APL and dev-APL —
// the strongest form of the reproduction: the analytic optimization must
// survive contact with a real (simulated) network.
#include <iostream>

#include "bench_common.h"
#include "netsim/sim.h"

int main() {
  using namespace nocmap;
  bench::print_header(
      "fig09_measured — simulator-measured max-APL and dev-APL",
      "paper Figure 9 + Table 4, via cycle-level simulation");

  const auto configs = parsec_table3_configs();
  constexpr std::size_t kMethods = 4;

  SimConfig sim_cfg;
  sim_cfg.warmup_cycles = 2000;
  sim_cfg.measure_cycles = 40000;

  std::vector<double> max_apl(configs.size() * kMethods, 0.0);
  std::vector<double> dev_apl(configs.size() * kMethods, 0.0);
  ParallelTrialRunner runner(bench::bench_parallel_config());
  runner.for_each(configs.size() * kMethods, [&](std::size_t idx) {
    const std::size_t c = idx / kMethods;
    const std::size_t m = idx % kMethods;
    const ObmProblem problem = bench::standard_problem(configs[c]);
    auto mappers = bench::paper_mappers();
    const SimResult r =
        run_simulation(problem, mappers[m]->map(problem), sim_cfg);
    max_apl[idx] = r.max_apl;
    dev_apl[idx] = r.dev_apl;
  });

  TextTable tmax({"cfg", "Global", "MC", "SA", "SSS"});
  TextTable tdev({"cfg", "Global", "MC", "SA", "SSS"});
  std::vector<double> max_sum(kMethods, 0.0), dev_sum(kMethods, 0.0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<std::string> rmax{configs[c].name}, rdev{configs[c].name};
    for (std::size_t m = 0; m < kMethods; ++m) {
      max_sum[m] += max_apl[c * kMethods + m];
      dev_sum[m] += dev_apl[c * kMethods + m];
      rmax.push_back(fmt(max_apl[c * kMethods + m]));
      rdev.push_back(fmt(dev_apl[c * kMethods + m], 3));
    }
    tmax.add_row(rmax);
    tdev.add_row(rdev);
  }
  std::cout << "\nMeasured max-APL [cycles] (includes pipeline/ejection "
               "overheads the analytic model folds away):\n";
  tmax.print(std::cout);
  bench::save_table(tmax, "fig09_measured_max_apl");
  std::cout << "\nMeasured dev-APL:\n";
  tdev.print(std::cout);
  bench::save_table(tdev, "fig09_measured_dev_apl");

  std::cout << "\nMeasured reduction vs Global (analytic bench: MC ~-10%, "
               "SA/SSS ~-12%):\n"
            << "  MC:  " << fmt_percent(max_sum[1] / max_sum[0] - 1.0) << "\n"
            << "  SA:  " << fmt_percent(max_sum[2] / max_sum[0] - 1.0) << "\n"
            << "  SSS: " << fmt_percent(max_sum[3] / max_sum[0] - 1.0) << "\n"
            << "Measured dev-APL, SSS vs Global: "
            << fmt_percent(dev_sum[3] / dev_sum[0] - 1.0)
            << " (paper: -99.65%).\n";
  return 0;
}
