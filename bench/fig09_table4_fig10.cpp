// Figure 9, Table 4 and Figure 10 reproduction: max-APL, dev-APL and
// normalized g-APL of Global / MC / SA / SSS on C1..C8. All three judge the
// same 32 (config, mapper) mappings, so each is mapped and evaluated once,
// in one fan-out whose units write only their own slot.
// Paper shapes:
//  * Fig. 9: SSS reduces max-APL by ~10.42% vs Global on average; MC and SA
//    land in between (-8.74% and -9.44%).
//  * Table 4: Global's dev-APL is largest by far; MC and SA moderate; SSS
//    smaller still (-99.65% vs Global, -95.45% vs MC, -83.15% vs SA).
//  * Fig. 10: g-APL normalized to Global (exact, so every other scheme is
//    >= 1.0); all OBM heuristics stay within 6%, SSS loses least (<= 3.82%),
//    then SA (4.82%), then MC (5.35%).
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace nocmap;
  bench::print_header(
      "fig09_table4_fig10 — max-APL, dev-APL and normalized g-APL",
      "paper Figure 9, Table 4 and Figure 10");

  const auto configs = parsec_table3_configs();
  constexpr std::size_t kMethods = 4;

  std::vector<LatencyReport> reports(configs.size() * kMethods);
  ParallelTrialRunner(ParallelConfig::from_env())
      .for_each(reports.size(), [&](std::size_t idx) {
        const ObmProblem problem =
            bench::standard_problem(configs[idx / kMethods]);
        auto mappers = bench::paper_mappers();
        reports[idx] =
            evaluate(problem, mappers[idx % kMethods]->map(problem));
      });

  TextTable t9({"cfg", "Global", "MC", "SA", "SSS"});
  TextTable t4({"cfg", "Global", "MC", "SA", "SSS"});
  TextTable t10({"cfg", "Global", "MC", "SA", "SSS"});
  std::vector<double> max_sum(kMethods, 0.0), dev_sum(kMethods, 0.0),
      norm_sum(kMethods, 0.0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const LatencyReport* r = &reports[c * kMethods];
    std::vector<std::string> r9{configs[c].name}, r4{configs[c].name},
        r10{configs[c].name};
    for (std::size_t m = 0; m < kMethods; ++m) {
      const double norm = r[m].g_apl / r[0].g_apl;
      max_sum[m] += r[m].max_apl;
      dev_sum[m] += r[m].dev_apl;
      norm_sum[m] += norm;
      r9.push_back(fmt(r[m].max_apl));
      r4.push_back(fmt(r[m].dev_apl, 3));
      r10.push_back(fmt(norm, 4));
    }
    t9.add_row(r9);
    t4.add_row(r4);
    t10.add_row(r10);
  }
  t9.add_row({"Avg", fmt(max_sum[0] / 8), fmt(max_sum[1] / 8),
              fmt(max_sum[2] / 8), fmt(max_sum[3] / 8)});
  t4.add_row({"Avg", fmt(dev_sum[0] / 8, 3), fmt(dev_sum[1] / 8, 3),
              fmt(dev_sum[2] / 8, 3), fmt(dev_sum[3] / 8, 3)});
  t10.add_row({"Avg", fmt(norm_sum[0] / 8, 4), fmt(norm_sum[1] / 8, 4),
               fmt(norm_sum[2] / 8, 4), fmt(norm_sum[3] / 8, 4)});

  std::cout << "\nFigure 9 — max-APL of the four algorithms:\n";
  t9.print(std::cout);
  bench::save_table(t9, "fig09_max_apl");
  std::cout << "\nReduction vs Global (paper: MC -8.74%, SA -9.44%, SSS "
               "-10.42%):\n"
            << "  MC:  " << fmt_percent(max_sum[1] / max_sum[0] - 1.0) << "\n"
            << "  SA:  " << fmt_percent(max_sum[2] / max_sum[0] - 1.0) << "\n"
            << "  SSS: " << fmt_percent(max_sum[3] / max_sum[0] - 1.0)
            << "\n";

  std::cout << "\nTable 4 — dev-APL of the four algorithms:\n";
  t4.print(std::cout);
  bench::save_table(t4, "table4_dev_apl");
  std::cout << "\nSSS dev-APL reduction (paper: -99.65% vs Global, -95.45% "
               "vs MC, -83.15% vs SA):\n"
            << "  vs Global: " << fmt_percent(dev_sum[3] / dev_sum[0] - 1.0)
            << "\n"
            << "  vs MC:     " << fmt_percent(dev_sum[3] / dev_sum[1] - 1.0)
            << "\n"
            << "  vs SA:     " << fmt_percent(dev_sum[3] / dev_sum[2] - 1.0)
            << "\n";

  std::cout << "\nFigure 10 — g-APL normalized to Global:\n";
  t10.print(std::cout);
  bench::save_table(t10, "fig10_gapl_overhead");
  std::cout << "\ng-APL overhead vs Global (paper: MC +5.35%, SA +4.82%, "
               "SSS <= +3.82%):\n"
            << "  MC:  " << fmt_percent(norm_sum[1] / 8 - 1.0) << "\n"
            << "  SA:  " << fmt_percent(norm_sum[2] / 8 - 1.0) << "\n"
            << "  SSS: " << fmt_percent(norm_sum[3] / 8 - 1.0) << "\n";
  return 0;
}
