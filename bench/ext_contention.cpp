// Extension: first-principles queuing. The paper justifies a small constant
// td_q empirically; the ContentionModel derives per-link utilization from
// the mapping and rates, predicts td_q via M/D/1, and predicts the
// saturation injection scale. This bench validates both against the
// cycle-level simulator and asks a question the paper leaves open: does
// APL balancing (SSS) also balance *link* load, or does it create hotspots
// Global avoids?
#include <iostream>

#include "bench_common.h"
#include "core/contention.h"
#include "netsim/sim.h"

int main() {
  using namespace nocmap;
  bench::print_header("ext_contention — analytic queuing vs simulation",
                      "extension of paper Section II.C (td_q model)");

  const ObmProblem problem = bench::standard_problem("C1");
  SortSelectSwapMapper sss;
  GlobalMapper global;
  const Mapping ms = sss.map(problem);
  const Mapping mg = global.map(problem);

  std::cout << "\n1. Predicted vs measured per-hop queuing td_q (SSS "
               "mapping of C1):\n";
  const std::vector<double> scales = {0.5, 1.0, 2.0, 4.0};
  std::vector<SimResult> sims(scales.size());
  ParallelTrialRunner(ParallelConfig::from_env())
      .for_each(scales.size(), [&](std::size_t i) {
        SimConfig scfg;
        scfg.warmup_cycles = 2000;
        scfg.measure_cycles = 20000;
        scfg.traffic.injection_scale = scales[i];
        sims[i] = run_simulation(problem, ms, scfg);
      });

  TextTable tdq({"scale", "predicted td_q", "measured td_q",
                 "max link util"});
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const ContentionModel model(problem, ms, scales[i]);
    tdq.add_row({fmt(scales[i], 1), fmt(model.predicted_td_q(), 3),
                 fmt(sims[i].activity.avg_queue_wait(), 3),
                 fmt(model.max_utilization(), 3)});
  }
  tdq.print(std::cout);

  const ContentionModel at_one(problem, ms);
  std::cout << "\nPredicted saturation injection scale (hottest link at "
               "capacity): "
            << fmt(at_one.saturation_scale(), 2)
            << "\n(compare the knee in ext_load_sweep between scale 4 and "
               "8).\n";

  std::cout << "\n2. Link-load profile under the two mappings:\n";
  TextTable links({"mapping", "max link util", "mean link util",
                   "predicted td_q"});
  for (const auto& [name, mapping] :
       {std::pair<const char*, const Mapping&>{"Global", mg},
        std::pair<const char*, const Mapping&>{"SSS", ms}}) {
    const ContentionModel model(problem, mapping);
    links.add_row({name, fmt(model.max_utilization(), 4),
                   fmt(model.mean_utilization(), 4),
                   fmt(model.predicted_td_q(), 4)});
  }
  links.print(std::cout);
  std::cout << "\nReading: balancing per-application APLs does not "
               "materially change the fabric's\nlink-load profile — mean "
               "utilization is mapping-invariant up to path-length\n"
               "differences, and the hottest links (around the corner MCs) "
               "are workload-, not\nmapping-, determined at these loads.\n";
  return 0;
}
