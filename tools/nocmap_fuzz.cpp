// nocmap_fuzz — seeded differential fuzzing CLI over src/check/
// (DESIGN.md §10).
//
//   nocmap_fuzz --iterations 200 --seed 1           # fuzz from one seed
//   nocmap_fuzz --replay tests/corpus/*.scenario    # re-run repro files
//   nocmap_fuzz --dump-scenario 42 out.scenario     # spec of one seed
//   nocmap_fuzz --canary                            # mutation-canary self-test
//   nocmap_fuzz --list-oracles
//
// Exit codes: 0 all checks passed (for --canary: the seeded bug was caught
// and shrunk), 1 a property failed (minimized repro written to --out), 2
// usage error. A RunReport with the check.* counter snapshot is written to
// <out>/REPORT_nocmap_fuzz.json.
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "core/cost_cache.h"
#include "util/error.h"
#include "util/parse.h"

namespace {

using namespace nocmap;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --iterations N       scenarios to fuzz (default 100)\n"
      << "  --seed S             base seed for the scenario stream "
         "(default 1)\n"
      << "  --oracle NAME        restrict to one oracle (repeatable)\n"
      << "  --out DIR            repro/report output directory (default "
         "'repros')\n"
      << "  --no-shrink          report failures unminimized\n"
      << "  --replay FILE...     re-execute repro/corpus files instead of "
         "fuzzing\n"
      << "  --dump-scenario S F  write the scenario of seed S to file F\n"
      << "  --canary             self-test: seed an off-by-one bug, prove "
         "the\n"
      << "                       oracles catch and shrink it\n"
      << "  --list-oracles       print the oracle registry\n";
  return 2;
}

void print_failure(const check::FuzzFailure& failure) {
  std::cout << "FAIL [" << failure.oracle << "] seed "
            << failure.original.seed << "\n  " << failure.detail << "\n";
  if (failure.original != failure.minimal) {
    std::cout << "  minimized: mesh " << failure.minimal.mesh_side << "x"
              << failure.minimal.mesh_side << ", "
              << failure.minimal.num_applications << " app(s) x "
              << failure.minimal.threads_per_app << " thread(s), config "
              << failure.minimal.config << " (" << failure.shrink_attempts
              << " shrink attempts)\n";
  }
  if (!failure.repro_path.empty()) {
    std::cout << "  repro: " << failure.repro_path << "\n";
  }
}

void save_run_report(const check::FuzzOptions& options,
                     const check::FuzzReport& report) {
  obs::RunReport& out = obs::RunReport::global();
  out.set_binary("nocmap_fuzz");
  check::write_report(options, report, out);
  const std::filesystem::path dir =
      options.repro_dir.empty() ? "." : options.repro_dir;
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "REPORT_nocmap_fuzz.json").string();
  if (out.save(path)) std::cout << "[report: " << path << "]\n";
}

int run_replay(const std::vector<std::string>& files) {
  bool all_ok = true;
  for (const std::string& file : files) {
    const check::ReplayResult result = check::replay_repro(file);
    if (result.ok) {
      std::cout << "OK   " << file << "\n";
    } else {
      all_ok = false;
      std::cout << "FAIL " << file << " [" << result.oracle << "]\n  "
                << result.detail << "\n";
    }
  }
  return all_ok ? 0 : 1;
}

/// Mutation-canary self-test: enable the seeded off-by-one in the cost
/// cache and require the fuzzer to catch it within a few iterations and
/// shrink it to a trivial (≤2-application) scenario.
int run_canary(check::FuzzOptions options) {
  struct HookGuard {
    HookGuard() { check_hooks::set_cost_cache_off_by_one(true); }
    ~HookGuard() { check_hooks::set_cost_cache_off_by_one(false); }
  } guard;

  options.iterations = std::max<std::size_t>(options.iterations, 10);
  options.max_failures = 1;
  const check::FuzzReport report = check::run_fuzz(options);
  save_run_report(options, report);
  if (report.failures.empty()) {
    std::cout << "CANARY NOT CAUGHT within " << options.iterations
              << " iterations — the oracles are blind to a seeded "
                 "cost-copy bug\n";
    return 1;
  }
  const check::FuzzFailure& failure = report.failures.front();
  print_failure(failure);
  if (failure.minimal.num_applications > 2) {
    std::cout << "CANARY caught but shrunk only to "
              << failure.minimal.num_applications
              << " applications (want <= 2)\n";
    return 1;
  }
  std::cout << "CANARY caught after " << report.scenarios
            << " scenario(s) and shrunk to "
            << failure.minimal.num_applications << " application(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzOptions options;
  options.repro_dir = "repros";
  std::vector<std::string> replay_files;
  bool canary = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    try {
      if (arg == "--iterations") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.iterations = parse_number<std::size_t>(v, arg);
      } else if (arg == "--seed") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.seed = parse_number<std::uint64_t>(v, arg);
      } else if (arg == "--oracle") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.oracles.emplace_back(v);
      } else if (arg == "--out") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.repro_dir = v;
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--replay") {
        while (i + 1 < argc && argv[i + 1][0] != '-') {
          replay_files.emplace_back(argv[++i]);
        }
        if (replay_files.empty()) return usage(argv[0]);
      } else if (arg == "--dump-scenario") {
        const char* seed = next();
        const char* file = next();
        if (seed == nullptr || file == nullptr) return usage(argv[0]);
        const check::ScenarioSpec spec = check::generate_scenario(
            parse_number<std::uint64_t>(seed, arg));
        check::save_repro(file, spec);
        std::cout << check::to_repro(spec);
        return 0;
      } else if (arg == "--canary") {
        canary = true;
      } else if (arg == "--list-oracles") {
        for (const check::Oracle& oracle : check::all_oracles()) {
          std::cout << oracle.name << " — " << oracle.what << "\n";
        }
        return 0;
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad argument for " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }

  try {
    if (canary) return run_canary(options);
    if (!replay_files.empty()) return run_replay(replay_files);

    const check::FuzzReport report = check::run_fuzz(options);
    save_run_report(options, report);
    std::cout << "fuzzed " << report.scenarios << " scenario(s), "
              << report.oracle_checks << " oracle check(s), "
              << report.failures.size() << " failure(s) [seed "
              << options.seed << "]\n";
    for (const check::FuzzFailure& failure : report.failures) {
      print_failure(failure);
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
