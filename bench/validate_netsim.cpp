// Substrate validation: the cycle-level simulator against the analytic
// latency model of Section II.C.
//
// 1. Unloaded point-to-point latency must grow linearly in hop count with
//    slope kRouterCycles + kLinkCycles (td_r + td_w, the per-hop cost both
//    layers read) plus serialization.
// 2. Per-application measured APLs under a real workload must track the
//    analytic APLs up to a constant pipeline/ejection offset.
#include <iostream>

#include "bench_common.h"
#include "netsim/sim.h"

int main() {
  using namespace nocmap;
  bench::print_header("validate_netsim — simulator vs analytic model",
                      "model-validation experiment (DESIGN.md §4)");

  const Mesh mesh = Mesh::square(8);
  NetworkConfig net_cfg;

  // --- 1. Unloaded latency vs hop count.
  std::cout << "\n1. Unloaded single-packet latency vs hops (1-flit "
               "packet):\n";
  TextTable hop_table({"hops", "measured [cycles]", "analytic eq.2 "
                       "(td_q=0, td_s=1)", "offset"});
  const LatencyParams unloaded{.td_q = 0.0, .td_s = 1.0};
  for (std::uint32_t hops = 1; hops <= 7; ++hops) {
    Network net(mesh, net_cfg);
    PacketInfo p;
    p.id = 1;
    p.src = mesh.tile_at(0, 0);
    p.dst = mesh.tile_at(0, hops);
    p.flits = 1;
    net.inject_packet(p);
    Cycle measured = 0;
    for (int c = 0; c < 1000 && net.packets_in_flight() > 0; ++c) {
      net.step();
      for (const auto& e : net.take_ejections()) measured = e.latency();
    }
    const double analytic = packet_latency(mesh, unloaded, p.src, p.dst);
    hop_table.add_row({std::to_string(hops),
                       std::to_string(measured), fmt(analytic, 1),
                       fmt(static_cast<double>(measured) - analytic, 1)});
  }
  hop_table.print(std::cout);
  std::cout << "Expected: constant offset (source-router pipeline + "
               "ejection), identical slope.\n";

  // --- 2. Loaded per-application APLs: analytic vs measured.
  std::cout << "\n2. Per-application APL, C1 under the Global mapping:\n";
  const ObmProblem problem = bench::standard_problem("C1");
  GlobalMapper global;
  const Mapping mapping = global.map(problem);
  const LatencyReport analytic = evaluate(problem, mapping);

  SimConfig sim_cfg;
  sim_cfg.warmup_cycles = 3000;
  sim_cfg.measure_cycles = 80000;
  const SimResult measured = run_simulation(problem, mapping, sim_cfg);

  TextTable apl_table({"application", "analytic APL", "measured APL",
                       "measured - analytic"});
  for (std::size_t a = 0; a < problem.num_applications(); ++a) {
    apl_table.add_row({problem.workload().application(a).name,
                       fmt(analytic.apl[a]), fmt(measured.apl[a]),
                       fmt(measured.apl[a] - analytic.apl[a])});
  }
  apl_table.print(std::cout);

  std::cout << "\nmeasured g-APL " << fmt(measured.g_apl) << " vs analytic "
            << fmt(analytic.g_apl) << "\n"
            << "measured per-hop queuing delay td_q = "
            << fmt(measured.activity.avg_queue_wait(), 3)
            << " cycles (paper Section II.C observes 0..1 at these loads; "
               "the analytic model assumes "
            << fmt(LatencyParams{}.td_q, 1) << ")\n"
            << "Packets measured: " << measured.packets_measured
            << ", local (zero-latency) accesses: " << measured.local_accesses
            << ", drain complete: "
            << (measured.drain_incomplete ? "NO" : "yes") << "\n";
  return 0;
}
