#include "sweep/runner.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/metrics.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "power/dsent_lite.h"
#include "util/error.h"

namespace nocmap::sweep {

namespace {

SimConfig sim_config_for(const CampaignSpec& spec,
                         const check::ScenarioSpec& scenario) {
  SimConfig config;
  config.warmup_cycles = spec.netsim.warmup_cycles;
  config.measure_cycles = spec.netsim.measure_cycles;
  config.max_drain_cycles = spec.netsim.max_drain_cycles;
  config.traffic.seed = scenario.seed;
  config.traffic.injection_scale = scenario.injection_scale;
  config.traffic.bursty = scenario.bursty;
  return config;
}

/// One scenario's log record: the analytic report of its mapping, the
/// simulated digest when `sim` is non-null, and `map_us`.
obs::JsonValue scenario_record(const SweepScenario& scenario,
                               const ObmProblem& problem,
                               const LatencyReport& report,
                               const SimResult* sim, double map_us) {
  obs::JsonValue rec = obs::JsonValue::object();
  rec["id"] = std::uint64_t{scenario.id};
  rec["index"] = std::uint64_t{scenario.index};
  rec["seed"] = std::uint64_t{scenario.spec.seed};
  rec["mesh_side"] = std::uint64_t{scenario.spec.mesh_side};
  rec["mesh_layers"] = std::uint64_t{scenario.spec.mesh_layers};
  rec["tsv_hop_cost"] = scenario.spec.tsv_hop_cost;
  rec["topology"] = scenario.spec.torus ? "torus" : "mesh";
  rec["mc_placement"] = mc_placement_name(scenario.spec.mc_placement);
  rec["mc_count"] = std::uint64_t{scenario.spec.mc_count};
  rec["traffic_mode"] =
      memory_traffic_mode_name(scenario.spec.traffic_mode);
  rec["config"] = scenario.spec.config;
  rec["num_applications"] = std::uint64_t{scenario.spec.num_applications};
  rec["threads_per_app"] = std::uint64_t{scenario.spec.threads_per_app};
  rec["injection_scale"] = scenario.spec.injection_scale;
  rec["bursty"] = scenario.spec.bursty;
  rec["mapper"] = scenario.mapper;
  rec["max_apl"] = report.max_apl;
  rec["g_apl"] = report.g_apl;
  rec["dev_apl"] = report.dev_apl;
  rec["objective"] = report.objective;
  if (sim != nullptr) {
    obs::JsonValue s = obs::JsonValue::object();
    s["max_apl"] = sim->max_apl;
    s["g_apl"] = sim->g_apl;
    s["dev_apl"] = sim->dev_apl;
    s["packets"] = std::uint64_t{sim->packets_measured};
    s["link_utilization"] = sim->load.link_utilization;
    s["max_crossbar_per_cycle"] = sim->load.max_crossbar_per_cycle;
    s["drain_incomplete"] = sim->drain_incomplete;
    const PowerReport power =
        power_report(sim->activity, sim->measured_cycles, problem.mesh());
    s["dynamic_mw"] = power.dynamic_mw;
    s["total_mw"] = power.total_mw;
    rec["sim"] = std::move(s);
  } else {
    rec["sim"] = obs::JsonValue();  // null: analytic-only scenario
  }
  // Wall clock of the map+evaluate stage — the one record field that is
  // *not* reproducible run to run; the aggregator ignores it.
  rec["map_us"] = map_us;
  return rec;
}

}  // namespace

CampaignLog read_campaign_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  NOCMAP_REQUIRE(is.good(), "cannot open campaign log " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  CampaignLog log;
  bool have_header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: not a complete line
    const std::string line = text.substr(pos, nl - pos);
    if (!have_header) {
      // A malformed header means the file is not a campaign log at all;
      // let the parse error propagate rather than "resuming" over it.
      obs::JsonValue header = obs::JsonValue::parse(line);
      const obs::JsonValue* schema = header.find("schema");
      NOCMAP_REQUIRE(schema != nullptr && schema->is_string() &&
                         schema->as_string() == kSweepLogSchema,
                     path + " is not a nocmap.sweep_log/1 file");
      log.header = std::move(header);
      have_header = true;
    } else {
      try {
        obs::JsonValue record = obs::JsonValue::parse(line);
        const obs::JsonValue* id = record.find("id");
        if (id == nullptr || id->as_uint() != log.records.size()) break;
        log.records.push_back(std::move(record));
      } catch (const Error&) {
        break;  // corrupt line: everything before it still counts
      }
    }
    log.good_bytes = nl + 1;
    pos = nl + 1;
  }
  NOCMAP_REQUIRE(have_header, "campaign log has no header line: " + path);
  return log;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  static const obs::Counter c_scenarios("sweep.scenarios");
  static const obs::Counter c_resumed("sweep.scenarios_resumed");
  static const obs::Counter c_chunks("sweep.chunks");
  static const obs::Timer t_chunk("sweep.chunk");
  static const obs::Timer t_map_eval("sweep.map_eval");

  NOCMAP_REQUIRE(options.chunk_size >= 1, "chunk_size must be >= 1");
  const Expansion expansion = expand_spec(spec);
  const std::uint64_t total = expansion.scenarios.size();
  const std::string digest = spec_digest(spec);

  std::filesystem::create_directories(options.out_dir);
  const std::filesystem::path log_path =
      std::filesystem::path(options.out_dir) / "campaign.jsonl";

  CampaignResult result;
  result.total = total;
  result.log_path = log_path.string();

  std::error_code ec;
  const bool existing = std::filesystem::exists(log_path, ec) &&
                        std::filesystem::file_size(log_path, ec) > 0;
  if (existing) {
    CampaignLog log = read_campaign_log(log_path.string());
    const obs::JsonValue* log_digest = log.header.find("spec_digest");
    NOCMAP_REQUIRE(log_digest != nullptr && log_digest->is_string() &&
                       log_digest->as_string() == digest,
                   "campaign log " + log_path.string() +
                       " was produced by a different spec (digest mismatch); "
                       "refusing to resume");
    const obs::JsonValue* log_total = log.header.find("scenarios");
    NOCMAP_REQUIRE(log_total != nullptr && log_total->as_uint() == total,
                   "campaign log scenario count does not match the spec");
    NOCMAP_REQUIRE(log.records.size() <= total,
                   "campaign log has more records than the expansion");
    result.resumed = log.records.size();
    c_resumed.add(result.resumed);
    // Drop any torn tail so the append below starts on a line boundary.
    if (std::filesystem::file_size(log_path) > log.good_bytes) {
      std::filesystem::resize_file(log_path, log.good_bytes);
    }
  } else {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    NOCMAP_REQUIRE(out.good(), "cannot create " + log_path.string());
    obs::JsonValue header = obs::JsonValue::object();
    header["schema"] = kSweepLogSchema;
    header["name"] = spec.name;
    header["spec_digest"] = digest;
    header["scenarios"] = std::uint64_t{total};
    header["combinations"] = std::uint64_t{expansion.combinations};
    header["skipped"] = std::uint64_t{expansion.skipped};
    out << header.dump(0) << '\n' << std::flush;
  }

  std::ofstream out(log_path, std::ios::binary | std::ios::app);
  NOCMAP_REQUIRE(out.good(), "cannot append to " + log_path.string());

  ParallelTrialRunner runner(options.parallel);
  std::uint64_t next = result.resumed;
  while (next < total) {
    if (options.max_scenarios != 0 &&
        result.completed >= options.max_scenarios) {
      break;
    }
    std::uint64_t chunk = std::min<std::uint64_t>(options.chunk_size,
                                                  total - next);
    if (options.max_scenarios != 0) {
      chunk = std::min<std::uint64_t>(
          chunk, options.max_scenarios - result.completed);
    }
    const obs::ScopedTimer chunk_timer(t_chunk);

    // One pure unit per scenario, sharded across workers: build the
    // problem, map it (the mapper runs inline on the unit's worker),
    // evaluate, simulate when the netsim stage applies, and render the
    // record into the unit's own slot. Simulator-unsupported topologies
    // (torus wraparound) stay analytic-only — classified here instead of
    // tripping the simulator's NOCMAP_REQUIRE.
    std::vector<std::string> lines(static_cast<std::size_t>(chunk));
    runner.for_each(lines.size(), [&](std::size_t i) {
      const SweepScenario& scenario = expansion.scenarios[next + i];
      const auto start = std::chrono::steady_clock::now();
      const ObmProblem problem = check::build_problem(scenario.spec);
      Mapping mapping;
      LatencyReport report;
      {
        const obs::ScopedTimer map_timer(t_map_eval);
        mapping =
            make_mapper(scenario.mapper, spec.mapper_options)->map(problem);
        report = evaluate(problem, mapping);
      }
      const double map_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      std::optional<SimResult> sim;
      if (spec.netsim.enabled && check::simulator_supported(scenario.spec)) {
        sim = run_simulation(problem, mapping,
                             sim_config_for(spec, scenario.spec));
      }
      lines[i] = scenario_record(scenario, problem, report,
                                 sim ? &*sim : nullptr, map_us)
                     .dump(0);
    });

    // Serial append in id order, flushed per line so a kill loses at most
    // the line being written.
    for (const std::string& line : lines) {
      out << line << '\n' << std::flush;
      NOCMAP_REQUIRE(out.good(),
                     "write to " + log_path.string() + " failed");
    }
    c_scenarios.add(chunk);
    c_chunks.add();
    next += chunk;
    result.completed += chunk;
    if (options.verbose) {
      std::cout << "[sweep] " << next << "/" << total << " scenarios ("
                << spec.name << ")\n";
    }
  }

  result.finished = next == total;
  return result;
}

}  // namespace nocmap::sweep
