// Figure 11 reproduction, plus Figure 9 / Table 4 as measured in
// simulation. Each of the 32 (config, method) chips is mapped and replayed
// once on the cycle-level simulator, in one fan-out whose units write only
// their own slot; every table below reads those 32 runs.
//
// Figure 11: the activity counters feed the DSENT-lite power model. Paper
// shape: SSS has negligible dynamic-power overhead vs Global (< 2.7%) and
// is slightly better than MC and SA.
//
// Figure 9 / Table 4, measured: the paper's APLs come from full-system
// simulation (Garnet), not from the analytic model its algorithms optimize,
// so the measured max-APL and dev-APL are the strongest form of the
// reproduction: the analytic optimization must survive contact with a real
// (simulated) network.
#include <iostream>

#include "bench_common.h"
#include "power/dsent_lite.h"

int main() {
  using namespace nocmap;
  bench::print_header(
      "fig11_power — dynamic NoC power; measured max-APL and dev-APL",
      "paper Figure 11 (DSENT 45nm/1V power comparison) + Figure 9 / "
      "Table 4, via cycle-level simulation");

  const auto configs = parsec_table3_configs();
  constexpr std::size_t kMethods = 4;
  const char* method_names[kMethods] = {"Global", "MC", "SA", "SSS"};

  SimConfig sim_cfg;
  sim_cfg.warmup_cycles = 2000;
  sim_cfg.measure_cycles = 40000;

  std::vector<double> dynamic_mw(configs.size() * kMethods, 0.0);
  std::vector<double> max_apl(dynamic_mw.size(), 0.0);
  std::vector<double> dev_apl(dynamic_mw.size(), 0.0);
  ParallelTrialRunner(ParallelConfig::from_env())
      .for_each(dynamic_mw.size(), [&](std::size_t idx) {
        const ObmProblem problem =
            bench::standard_problem(configs[idx / kMethods]);
        auto mappers = bench::paper_mappers();
        const SimResult r = run_simulation(
            problem, mappers[idx % kMethods]->map(problem), sim_cfg);
        dynamic_mw[idx] =
            power_report(r.activity, r.measured_cycles, problem.mesh())
                .dynamic_mw;
        max_apl[idx] = r.max_apl;
        dev_apl[idx] = r.dev_apl;
      });

  // --- Figure 11: dynamic power.
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
  bench::save_table(t, "fig11_power");

  std::cout << "\nAverage dynamic power overhead vs Global (paper: SSS "
               "< +2.7%, slightly better than MC and SA):\n";
  for (std::size_t m = 1; m < kMethods; ++m) {
    std::cout << "  " << method_names[m] << ": "
              << fmt_percent(sums[m] / sums[0] - 1.0) << "\n";
  }
  std::cout << "\nStatic power is identical across schemes ("
            << fmt(power_report(ActivityCounters{}, 1, Mesh::square(8))
                       .static_mw,
                   1)
            << " mW for the 8x8 fabric) and therefore not compared.\n";

  // --- Figure 9 / Table 4, measured.
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
