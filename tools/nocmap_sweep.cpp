// nocmap_sweep — campaign sweep driver over src/sweep/ (DESIGN.md §15,
// docs/campaigns.md is the operator guide, docs/sweep-spec.md the spec
// reference).
//
//   nocmap_sweep expand spec.json                # validate + expansion stats
//   nocmap_sweep expand spec.json --list 5       # ... and first 5 scenarios
//   nocmap_sweep run spec.json --out DIR         # run / resume the campaign
//   nocmap_sweep aggregate DIR                   # fold log -> frontier doc
//   nocmap_sweep bench --out DIR                 # write BENCH_sweep.json
//
// Exit codes: 0 success, 1 the campaign/aggregate hit a failure, 2 usage or
// spec error. `run` writes a RunReport with the sweep.* counter snapshot to
// <out>/REPORT_nocmap_sweep.json next to the campaign log.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/run_report.h"
#include "sweep/aggregate.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/error.h"
#include "util/parse.h"

namespace {

using namespace nocmap;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <command> [options]\n"
      << "commands:\n"
      << "  expand SPEC            parse + expand a campaign spec\n"
      << "    --list N             also print the first N scenarios\n"
      << "    --digest             print only the spec digest\n"
      << "  run SPEC               run (or resume) the campaign\n"
      << "    --out DIR            campaign directory (default 'campaign')\n"
      << "    --threads N          workers (default $NOCMAP_THREADS, 0=all,\n"
      << "                         at most 256)\n"
      << "    --chunk N            scenarios per commit chunk (default 64)\n"
      << "    --max-scenarios N    stop after N new scenarios (0 = all)\n"
      << "    --quiet              no per-chunk progress lines\n"
      << "  aggregate DIR|LOG      fold a campaign log into the frontier\n"
      << "    --out FILE           write the document here (default stdout)\n"
      << "  bench                  time a reference campaign + resume scan\n"
      << "    --out DIR            output directory (default 'bench_results')\n"
      << "    --scenarios N        campaign size (default 96)\n";
  return 2;
}

const char* require_value(int argc, char** argv, int& i, const char* flag) {
  NOCMAP_REQUIRE(i + 1 < argc, std::string(flag) + " needs a value");
  return argv[++i];
}

template <typename T>
T require_number(int argc, char** argv, int& i, const char* flag) {
  return parse_number<T>(require_value(argc, argv, i, flag), flag);
}

int cmd_expand(int argc, char** argv) {
  std::string spec_path;
  std::size_t list = 0;
  bool digest_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = require_number<std::size_t>(argc, argv, i, "--list");
    } else if (arg == "--digest") {
      digest_only = true;
    } else if (spec_path.empty() && !arg.empty() && arg[0] != '-') {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  const sweep::CampaignSpec spec = sweep::load_spec(spec_path);
  if (digest_only) {
    std::cout << sweep::spec_digest(spec) << "\n";
    return 0;
  }
  const sweep::Expansion expansion = sweep::expand_spec(spec);
  std::cout << "spec:         " << spec.name << "\n"
            << "digest:       " << sweep::spec_digest(spec) << "\n"
            << "combinations: " << expansion.combinations << "\n"
            << "skipped:      " << expansion.skipped << "\n"
            << "scenarios:    " << expansion.scenarios.size() << "\n";
  for (std::size_t i = 0; i < list && i < expansion.scenarios.size(); ++i) {
    const sweep::SweepScenario& s = expansion.scenarios[i];
    std::cout << "  #" << s.id << " mesh " << s.spec.mesh_side << "x"
              << s.spec.mesh_side << (s.spec.torus ? " torus" : " mesh")
              << " config " << s.spec.config << " apps "
              << s.spec.num_applications << "x" << s.spec.threads_per_app
              << " inj " << s.spec.injection_scale << " seed " << s.spec.seed
              << " mapper " << s.mapper << "\n";
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  std::string spec_path;
  sweep::CampaignOptions options;
  options.parallel = ParallelConfig::from_env();
  options.verbose = true;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      options.out_dir = require_value(argc, argv, i, "--out");
    } else if (arg == "--threads") {
      options.parallel.num_threads = parse_worker_count(
          require_value(argc, argv, i, "--threads"), "--threads");
    } else if (arg == "--chunk") {
      options.chunk_size =
          require_number<std::size_t>(argc, argv, i, "--chunk");
    } else if (arg == "--max-scenarios") {
      options.max_scenarios =
          require_number<std::size_t>(argc, argv, i, "--max-scenarios");
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (spec_path.empty() && !arg.empty() && arg[0] != '-') {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  const sweep::CampaignSpec spec = sweep::load_spec(spec_path);
  const sweep::CampaignResult result = sweep::run_campaign(spec, options);
  std::cout << "campaign " << spec.name << ": " << result.completed
            << " new, " << result.resumed << " resumed, " << result.total
            << " total -> " << result.log_path
            << (result.finished ? " (complete)" : " (partial)") << "\n";

  obs::RunReport& report = obs::RunReport::global();
  report.set_binary("nocmap_sweep");
  report.set("setup.spec", spec_path);
  report.set("setup.spec_digest", sweep::spec_digest(spec));
  report.set("setup.threads",
             std::uint64_t{options.parallel.resolved_threads()});
  report.set("sweep.total", std::uint64_t{result.total});
  report.set("sweep.resumed", std::uint64_t{result.resumed});
  report.set("sweep.completed", std::uint64_t{result.completed});
  report.set("sweep.finished", result.finished);
  report.note_artifact(result.log_path);
  report.attach_metrics();
  const std::string report_path =
      (std::filesystem::path(options.out_dir) / "REPORT_nocmap_sweep.json")
          .string();
  if (report.save(report_path)) {
    std::cout << "[report: " << report_path << "]\n";
  }
  return result.finished ? 0 : 1;
}

int cmd_aggregate(int argc, char** argv) {
  std::string target;
  std::string out_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      out_file = require_value(argc, argv, i, "--out");
    } else if (target.empty() && !arg.empty() && arg[0] != '-') {
      target = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (target.empty()) return usage(argv[0]);
  if (std::filesystem::is_directory(target)) {
    target = (std::filesystem::path(target) / "campaign.jsonl").string();
  }

  const obs::JsonValue frontier = sweep::aggregate_file(target);
  const std::string text = frontier.dump(2) + "\n";
  if (out_file.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_file, std::ios::binary | std::ios::trunc);
    out << text;
    NOCMAP_REQUIRE(out.good(), "cannot write " + out_file);
    std::cout << "[frontier: " << out_file << "]\n";
  }
  const obs::JsonValue* complete = frontier.find("complete");
  return complete != nullptr && complete->as_bool() ? 0 : 1;
}

/// Reference campaign for the perf gate: analytic-only, one cheap and one
/// search mapper, sized by --scenarios. Timings go to BENCH_sweep.json, the
/// `sweep` section of a RunReport (keys must keep their _us suffix).
int cmd_bench(int argc, char** argv) {
  std::string out_dir = "bench_results";
  std::uint32_t scenarios = 96;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      out_dir = require_value(argc, argv, i, "--out");
    } else if (arg == "--scenarios") {
      scenarios =
          require_number<std::uint32_t>(argc, argv, i, "--scenarios");
    } else {
      return usage(argv[0]);
    }
  }

  sweep::CampaignSpec spec;
  spec.name = "bench-sweep";
  spec.mesh_side = {8};
  spec.config = {"C1", "C3"};
  spec.num_applications = {4};
  spec.injection_scale = {0.5, 1.0};
  spec.mappers = {"Global", "SSS"};
  // 8 scenarios per seed (2 configs x 2 injections x 2 mappers).
  spec.seed.count = std::max<std::uint32_t>(1, scenarios / 8);

  sweep::CampaignOptions options;
  options.parallel = ParallelConfig::from_env();
  options.out_dir =
      (std::filesystem::path(out_dir) / "bench_sweep_campaign").string();
  std::filesystem::remove_all(options.out_dir);

  using clock = std::chrono::steady_clock;
  const auto run_start = clock::now();
  const sweep::CampaignResult result = sweep::run_campaign(spec, options);
  const double run_us = std::chrono::duration<double, std::micro>(
                            clock::now() - run_start)
                            .count();

  // Resume overhead: re-running over the finished log is a pure scan
  // (parse every record, truncate nothing, execute nothing).
  const auto resume_start = clock::now();
  const sweep::CampaignResult resumed = sweep::run_campaign(spec, options);
  const double resume_us = std::chrono::duration<double, std::micro>(
                               clock::now() - resume_start)
                               .count();
  NOCMAP_REQUIRE(resumed.completed == 0 && resumed.finished,
                 "bench resume scan unexpectedly re-ran scenarios");

  obs::RunReport report("nocmap_sweep");
  report.set("sweep.scenarios", std::uint64_t{result.total});
  report.set("sweep.threads",
             std::uint64_t{options.parallel.resolved_threads()});
  report.set("sweep.scenario_us", run_us / static_cast<double>(result.total));
  report.set("sweep.resume_scan_us", resume_us);
  std::filesystem::create_directories(out_dir);
  const std::string path =
      (std::filesystem::path(out_dir) / "BENCH_sweep.json").string();
  NOCMAP_REQUIRE(report.save_baseline(path, {"sweep"}),
                 "cannot write " + path);
  std::cout << report.root().find("sweep")->dump(2) << "\n[bench: " << path
            << "]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "expand") return cmd_expand(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "aggregate") return cmd_aggregate(argc, argv);
    if (command == "bench") return cmd_bench(argc, argv);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(argv[0]);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
