// Extension: scaling of quality and runtime with chip size, backing the
// paper's O(N^3) complexity analysis (Section IV.B) and its claim that the
// algorithm is fast enough for dynamic remapping. Meshes from 4x4 to 16x16
// with four equal applications. Exits non-zero if parallel SSS ever
// diverges from the serial mapping.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

/// Calls per timed point. Single calls are too noisy to compare serial and
/// parallel runs, because idle cores wake slowly.
constexpr std::size_t kCalls = 9;

/// Median wall time of one call of fn over kCalls calls, in ms.
double median_ms(const std::function<void()>& fn) {
  std::vector<double> ms(kCalls);
  for (double& m : ms) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    m = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
  std::nth_element(ms.begin(), ms.begin() + kCalls / 2, ms.end());
  return ms[kCalls / 2];
}

/// Spins every hardware thread for 0.5 s so no core is asleep when the
/// first parallel call is timed.
void warm_cores() {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  std::vector<std::thread> spinners(
      std::max(1u, std::thread::hardware_concurrency()));
  for (std::thread& t : spinners) {
    t = std::thread([until] {
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

}  // namespace

int main() {
  using namespace nocmap;
  bench::print_header("ext_scaling — quality & runtime vs chip size",
                      "extension of paper Section IV.B complexity analysis");

  const ParallelConfig parallel = ParallelConfig::from_env();
  std::cout << "Parallel SSS: " << parallel.resolved_threads()
            << " worker(s); times are the median of " << kCalls
            << " calls\n";
  warm_cores();

  TextTable t({"mesh", "threads", "Global max-APL", "SSS max-APL",
               "SSS vs Global", "Global [ms]", "SSS [ms]", "SSS par [ms]",
               "speedup"});
  bool diverged = false;

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
    Mapping mg, ms;
    const double global_ms = median_ms([&] { mg = global.map(problem); });
    const double sss_ms = median_ms([&] { ms = sss.map(problem); });
    // Deterministic-mode contract, checked at bench scale too: every
    // parallel sweep must reproduce the serial mapping bit-for-bit.
    bool side_diverged = false;
    const double sss_par_ms = median_ms([&] {
      side_diverged |= sss_par.map(problem).thread_to_tile != ms.thread_to_tile;
    });
    if (side_diverged) {
      diverged = true;
      std::cout << "  *** DETERMINISM VIOLATION at " << side << "x" << side
                << ": parallel SSS diverged from serial ***\n";
    }
    const LatencyReport rg = evaluate(problem, mg);
    const LatencyReport rs = evaluate(problem, ms);
    const std::string name = std::to_string(side) + "x" + std::to_string(side);
    const double speedup =
        bench::record_speedup("sss." + name, sss_ms, sss_par_ms);

    t.add_row({name, std::to_string(mesh.num_tiles()), fmt(rg.max_apl),
               fmt(rs.max_apl), fmt_percent(rs.max_apl / rg.max_apl - 1.0),
               fmt(global_ms, 2), fmt(sss_ms, 2), fmt(sss_par_ms, 2),
               fmt(speedup, 2) + "x"});

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

  std::cout << "\nEven at 16x16 (256 threads) SSS completes in well under a "
               "second, supporting the\npaper's dynamic-remapping use case "
               "(Section IV.B).\n";
  return diverged ? 1 : 0;
}
