#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "obs/run_report.h"
#include "obs/trace.h"

namespace nocmap::bench {

namespace {

std::chrono::steady_clock::time_point g_run_start;

/// Ensures bench_results/ exists; empty path (and a console note) on failure.
std::filesystem::path results_dir(const char* what) {
  const std::filesystem::path dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cout << "(could not create " << dir.string() << "; skipping " << what
              << " export)\n";
    return {};
  }
  return dir;
}

/// atexit hook: stamps the wall time, attaches the metric snapshot and
/// writes bench_results/REPORT_<binary>.json plus any NOCMAP_TRACE file.
/// Registered by print_header, so every bench binary emits a RunReport
/// without per-binary wiring.
void flush_global_report() {
  obs::RunReport& report = obs::RunReport::global();
  if (report.binary().empty()) return;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - g_run_start)
          .count();
  report.set("wall_ms", wall_ms);
  report.attach_metrics();
  const std::filesystem::path dir = results_dir("report");
  if (dir.empty()) return;
  const std::filesystem::path path =
      dir / ("REPORT_" + report.binary() + ".json");
  if (report.save(path.string())) {
    std::cout << "[report: " << path.string() << "]\n";
  }
  if (obs::flush_trace_to_env_path()) {
    std::cout << "[trace: " << std::getenv("NOCMAP_TRACE") << "]\n";
  }
}

}  // namespace

ObmProblem standard_problem(const ConfigSpec& spec) {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(spec, kWorkloadSeed));
}

ObmProblem standard_problem(const std::string& config_name) {
  return standard_problem(parsec_config(config_name));
}

std::vector<std::unique_ptr<Mapper>> paper_mappers() {
  std::vector<std::unique_ptr<Mapper>> mappers;
  mappers.push_back(std::make_unique<GlobalMapper>());
  mappers.push_back(
      std::make_unique<MonteCarloMapper>(kMcTrials, kAlgorithmSeed));
  mappers.push_back(std::make_unique<AnnealingMapper>(
      AnnealingParams{.iterations = kSaIterations, .seed = kAlgorithmSeed}));
  mappers.push_back(std::make_unique<SortSelectSwapMapper>());
  return mappers;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==================================================\n"
            << title << '\n'
            << "Reproduces: " << paper_ref << '\n'
            << "Setup: 8x8 mesh, corner MCs, default latency params "
               "(td_r=3, td_w=1, td_q=0.3, td_s=1.8), workload seed "
            << kWorkloadSeed << '\n'
            << "==================================================\n";

  // Observability bootstrap: the binary name is the title prefix (every
  // bench titles itself "<binary> — <purpose>"). First call wins; the
  // report is flushed at exit so the binary needs no teardown code.
  obs::RunReport& report = obs::RunReport::global();
  if (!report.binary().empty()) return;
  const std::size_t dash = title.find(" — ");
  report.set_binary(dash == std::string::npos ? title : title.substr(0, dash));
  report.set("title", title);
  report.set("reproduces", paper_ref);
  report.set("workload_seed", kWorkloadSeed);
  report.set("threads",
             static_cast<std::uint64_t>(
                 ParallelConfig::from_env().resolved_threads()));
  g_run_start = std::chrono::steady_clock::now();
  obs::init_tracing_from_env();
  std::atexit(flush_global_report);
}

void print_mapping_grid(const ObmProblem& problem, const Mapping& mapping,
                        std::ostream& os) {
  const Mesh& mesh = problem.mesh();
  const auto tile_to_thread = mapping.tile_to_thread();
  for (std::uint32_t r = 0; r < mesh.rows(); ++r) {
    for (std::uint32_t c = 0; c < mesh.cols(); ++c) {
      const std::size_t thread = tile_to_thread[mesh.tile_at(r, c)];
      const std::size_t app = problem.workload().application_of(thread);
      os << (app + 1) << (c + 1 < mesh.cols() ? " " : "\n");
    }
  }
}

void save_table(const TextTable& table, const std::string& name) {
  const std::filesystem::path dir = results_dir("CSV");
  if (dir.empty()) return;
  const std::filesystem::path path = dir / (name + ".csv");
  table.save_csv(path.string());
  obs::RunReport::global().note_artifact(path.string());
  std::cout << "[csv: " << path.string() << "]\n";
}

double record_speedup(const std::string& key, double serial_ms,
                      double parallel_ms) {
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  obs::RunReport& report = obs::RunReport::global();
  report.set(key + ".serial_ms", serial_ms);
  report.set(key + ".parallel_ms", parallel_ms);
  report.set(key + ".speedup", speedup);
  return speedup;
}

void save_baseline(const std::string& path,
                   const std::vector<std::string>& sections) {
  obs::RunReport& report = obs::RunReport::global();
  NOCMAP_REQUIRE(report.save_baseline(path, sections),
                 "cannot write " + path);
  report.note_artifact(path);
  std::cout << "[json: " << path << "]\n";
}

}  // namespace nocmap::bench
