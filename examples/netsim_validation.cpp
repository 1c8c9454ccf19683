// Model-vs-measurement walkthrough: maps a workload, predicts per-
// application latency with the analytic Section-II.C model, then replays
// the same mapping on the cycle-level wormhole network simulator and
// compares. Demonstrates the netsim + power public APIs.
#include <iostream>

#include "core/metrics.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "power/dsent_lite.h"
#include "workload/synthesis.h"

int main() {
  using namespace nocmap;

  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel chip(mesh, LatencyParams{});
  const Workload workload = synthesize_workload(parsec_config("C3"), 7);
  const ObmProblem problem(chip, workload);

  SortSelectSwapMapper mapper;
  const Mapping mapping = mapper.map(problem);
  const LatencyReport analytic = evaluate(problem, mapping);

  SimConfig cfg;
  cfg.warmup_cycles = 3000;
  cfg.measure_cycles = 80000;
  std::cout << "Replaying the SSS mapping of C3 on the cycle-level "
               "simulator (" << cfg.measure_cycles << " measured cycles)...\n\n";
  const SimResult measured = run_simulation(problem, mapping, cfg);

  std::cout << "Per-application APL [cycles]:\n";
  std::cout << "  application        analytic   measured   delta\n";
  for (std::size_t a = 0; a < workload.num_applications(); ++a) {
    std::printf("  %-16s %9.2f %10.2f %7.2f\n",
                workload.application(a).name.c_str(), analytic.apl[a],
                measured.apl[a], measured.apl[a] - analytic.apl[a]);
  }
  std::printf("\n  g-APL            %9.2f %10.2f\n", analytic.g_apl,
              measured.g_apl);
  std::printf("  max-APL          %9.2f %10.2f\n", analytic.max_apl,
              measured.max_apl);
  std::printf("  dev-APL          %9.3f %10.3f\n", analytic.dev_apl,
              measured.dev_apl);

  std::cout << "\nThe constant delta is the source-router pipeline + "
               "ejection cost the analytic\nmodel folds away; the *ordering* "
               "across applications is what the mapper optimizes.\n";

  // Power from the measured activity.
  const PowerReport pr =
      power_report(measured.activity, measured.measured_cycles, mesh);
  std::cout << "\nDSENT-lite power during the run:\n"
            << "  dynamic " << pr.dynamic_mw << " mW (buffers "
            << pr.buffer_mw << ", crossbars " << pr.crossbar_mw
            << ", arbiters " << pr.arbiter_mw << ", links " << pr.link_mw
            << ")\n  static  " << pr.static_mw << " mW\n"
            << "  packets measured: " << measured.packets_measured << "\n";
  return 0;
}
