// Microbenchmark of the cycle-level network simulator's hot path, emitting
// the committed perf baseline BENCH_netsim.json, the `netsim` section of
// this bench's RunReport (gated by bench/compare_bench.py in CI's release
// leg, like the assignment kernel).
//
// Scenarios exercise the structure-of-arrays router engine from different
// angles:
//
//  * mesh8_c1_sss      — paper-scale 8x8 fabric, C1 workload under the SSS
//                        mapping: the configuration every figure bench
//                        replays, dominated by moderately loaded routers.
//  * mesh4_congested8x — a saturated 4x4 fabric (8x injection): dense
//                        occupancy masks, deep queues, worst-case switch
//                        allocation.
//  * mesh8_o1turn_vc4  — O1TURN with 4 VCs: widest per-port VC scan and
//                        split VC ranges.
//  * batch8_mixed      — 8 mixed-load scenarios through a 1-worker
//                        ParallelTrialRunner::for_each: the scenario fan-out
//                        the figure benches shard across workers (timed at
//                        1 worker so the number tracks engine throughput,
//                        not core count).
//  * mesh64_parallel_w{1,2,4,8} — one 64x64 mesh (4096 tiles) stepped with
//                        1/2/4/8 spatial-partition workers (DESIGN.md §16):
//                        the within-simulation scaling sweep. The w1/w8
//                        speedup is derived; the baseline's fingerprint
//                        holds the hardware thread count, so the CI gate
//                        can require scaling only on machines that have
//                        the cores.
//
// Each scenario reports its best-of-3 end-to-end wall time as
// `netsim.<scenario>.run_ms`.
// Optional argv[1] is the output directory (default ".").
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/run_report.h"
#include "workload/synthesis.h"

namespace {

using namespace nocmap;

// Accumulated APLs; printed so the optimizer cannot drop the runs.
double g_sink = 0.0;

/// Best-of-3 single invocations (runs are milliseconds-scale).
template <typename F>
double ms_per_run(F&& f) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    f();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    best = std::min(best, ms);
  }
  return best;
}

ObmProblem small_problem() {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(2);
  apps[0].name = "light";
  apps[0].threads.assign(8, ThreadProfile{2.0, 0.3});
  apps[1].name = "heavy";
  apps[1].threads.assign(8, ThreadProfile{8.0, 1.0});
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    Workload(std::move(apps)));
}

/// 64x64 mesh (4096 tiles), four apps filling the chip — big enough that a
/// cycle has real parallel work for every row-band domain.
ObmProblem mesh64_problem() {
  const Mesh mesh = Mesh::square(64);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 20140519, opt));
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : ".";
  bench::print_header("micro_netsim — router-engine hot-path timings",
                      "perf baseline layer (DESIGN.md §8, §12)");

  auto record = [](const std::string& scenario, double ms) {
    obs::RunReport::global().set("netsim." + scenario + ".run_ms", ms);
    std::cout << scenario << ": " << ms << " ms/run\n";
  };

  const ObmProblem paper = bench::standard_problem("C1");
  SortSelectSwapMapper sss;
  const Mapping paper_map = sss.map(paper);
  const ObmProblem small = small_problem();
  const Mapping small_map = small.identity_mapping();

  {
    SimConfig cfg;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 5000;
    record("mesh8_c1_sss", ms_per_run([&] {
             g_sink += run_simulation(paper, paper_map, cfg).g_apl;
           }));
  }
  {
    SimConfig cfg;
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 5000;
    cfg.traffic.injection_scale = 8.0;
    record("mesh4_congested8x", ms_per_run([&] {
             g_sink += run_simulation(small, small_map, cfg).g_apl;
           }));
  }
  {
    SimConfig cfg;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 5000;
    cfg.network.routing = RoutingAlgo::kO1Turn;
    cfg.network.vcs_per_port = 4;
    cfg.traffic.injection_scale = 2.0;
    record("mesh8_o1turn_vc4", ms_per_run([&] {
             g_sink += run_simulation(paper, paper_map, cfg).g_apl;
           }));
  }
  {
    std::vector<SimConfig> configs(8);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs[i].warmup_cycles = 500;
      configs[i].measure_cycles = 2000;
      configs[i].traffic.injection_scale = 1.0 + static_cast<double>(i);
    }
    ParallelTrialRunner runner(ParallelConfig{});
    record("batch8_mixed", ms_per_run([&] {
             std::vector<SimResult> out(configs.size());
             runner.for_each(configs.size(), [&](std::size_t i) {
               out[i] = run_simulation(small, small_map, configs[i]);
             });
             for (const SimResult& r : out) g_sink += r.g_apl;
           }));
  }

  // --- Within-simulation scaling: one 64x64 mesh, 1/2/4/8 partitions.
  double mesh64_w1 = 0.0;
  double mesh64_w8 = 0.0;
  {
    const ObmProblem big = mesh64_problem();
    const Mapping big_map = big.identity_mapping();
    SimConfig cfg;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 500;
    for (const std::size_t workers : {1, 2, 4, 8}) {
      cfg.sim_workers = workers;
      const double ms = ms_per_run(
          [&] { g_sink += run_simulation(big, big_map, cfg).g_apl; });
      record("mesh64_parallel_w" + std::to_string(workers), ms);
      if (workers == 1) mesh64_w1 = ms;
      if (workers == 8) mesh64_w8 = ms;
    }
  }
  const double speedup_w8 = mesh64_w8 > 0.0 ? mesh64_w1 / mesh64_w8 : 0.0;
  obs::RunReport::global().set("netsim.mesh64_speedup_w8", speedup_w8);
  std::cout << "mesh64 speedup at 8 workers: " << speedup_w8 << " ("
            << std::thread::hardware_concurrency() << " hw threads)\n";

  bench::save_baseline((out_dir / "BENCH_netsim.json").string(), {"netsim"});
  std::cout << "(checksum " << g_sink << ")\n";
  return 0;
}
