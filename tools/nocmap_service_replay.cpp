// Event-trace replay driver for the online mapping service (DESIGN.md §13).
//
//   nocmap_service_replay --events 100000 --seed 1 --mesh 8 --budget 8
//   nocmap_service_replay --events 5000 --simulate --json out.json
//
// Synthesizes a deterministic event trace, replays it through one
// MappingService on the calling thread (the fallback's SSS solve runs
// inline), and prints throughput (decisions/sec), decision-latency
// percentiles, admission and fallback statistics, and the decision digest
// (diff digests across runs/machines to prove replay determinism). --json
// writes the same summary as a small machine-readable file.
//
// Exit codes: 0 success, 2 bad usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "latency/model.h"
#include "netsim/sim.h"
#include "obs/json.h"
#include "service/replay.h"
#include "topology/mesh.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/table.h"

namespace {

using namespace nocmap;

void usage(std::ostream& os) {
  os << "usage: nocmap_service_replay [options]\n"
     << "  --events N      trace length (default 10000)\n"
     << "  --seed S        trace seed (default 1)\n"
     << "  --mesh N        square mesh side, 2-" << kMaxMeshSide
     << " (default 8)\n"
     << "  --budget M      per-event migration budget (default 8)\n"
     << "  --threshold X   fallback degradation threshold (default 1.25)\n"
     << "  --config CN     fixed Table-3 config C1..C8 (default: cycle)\n"
     << "  --max-app N     largest application thread count (default 16)\n"
     << "  --sample K      sample incremental-vs-fresh objective every K\n"
     << "                  events (default 0 = off)\n"
     << "  --simulate      after the replay, run the final placement\n"
     << "                  through the cycle-accurate netsim (measured\n"
     << "                  ground truth for the analytic decisions)\n"
     << "  --json PATH     also write the summary as JSON\n";
}

}  // namespace

int main(int argc, char** argv) {
  service::TraceConfig trace_config;
  trace_config.num_events = 10000;
  service::ServiceConfig service_config;
  service_config.migration_budget = 8;
  std::uint32_t mesh_side = 8;
  std::size_t sample_period = 0;
  bool simulate = false;
  std::string json_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--events") {
        trace_config.num_events = parse_number<std::size_t>(value(), arg);
      } else if (arg == "--seed") {
        trace_config.seed = parse_number<std::uint64_t>(value(), arg);
      } else if (arg == "--mesh") {
        mesh_side = parse_mesh_side(value(), arg);
      } else if (arg == "--budget") {
        service_config.migration_budget =
            parse_number<std::size_t>(value(), arg);
      } else if (arg == "--threshold") {
        service_config.degradation_threshold =
            parse_number<double>(value(), arg);
      } else if (arg == "--config") {
        trace_config.config = value();
      } else if (arg == "--max-app") {
        trace_config.max_threads_per_app =
            parse_number<std::uint32_t>(value(), arg);
      } else if (arg == "--sample") {
        sample_period = parse_number<std::size_t>(value(), arg);
      } else if (arg == "--simulate") {
        simulate = true;
      } else if (arg == "--json") {
        json_path = value();
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        throw Error("unknown option: " + arg);
      }
    }

    const Mesh mesh = Mesh::square(mesh_side);
    trace_config.num_tiles = static_cast<std::uint32_t>(mesh.num_tiles());
    const std::vector<service::Event> events =
        service::generate_trace(trace_config);

    service::MappingService engine(TileLatencyModel(mesh, LatencyParams{}),
                                   service_config);
    service::ReplayOptions replay_options;
    replay_options.objective_sample_period = sample_period;
    const service::ReplayStats stats =
        service::replay_trace(engine, events, replay_options);

    const double decisions_per_sec =
        stats.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(stats.events) / stats.wall_ms
            : 0.0;
    const double mean_us =
        stats.wall_ms * 1000.0 / static_cast<double>(stats.events);
    const double p50 = stats.decision_ns.percentile(0.50) / 1000.0;
    const double p99 = stats.decision_ns.percentile(0.99) / 1000.0;

    std::cout << "nocmap_service_replay — " << stats.events
              << " events on a " << mesh_side << "x" << mesh_side
              << " chip (seed " << trace_config.seed << ", budget "
              << service_config.migration_budget << ")\n\n";
    TextTable t({"metric", "value"});
    t.add_row({"decisions/sec", fmt(decisions_per_sec)});
    t.add_row({"mean decision [us]", fmt(mean_us)});
    t.add_row({"p50 decision [us]", fmt(p50)});
    t.add_row({"p99 decision [us]", fmt(p99)});
    t.add_row({"accepted / rejected",
               std::to_string(stats.accepted) + " / " +
                   std::to_string(stats.rejected)});
    t.add_row({"fallback re-solves", std::to_string(stats.fallbacks)});
    t.add_row({"degraded decisions", std::to_string(stats.degraded)});
    t.add_row({"threads migrated", std::to_string(stats.moved_threads)});
    if (stats.objective_samples > 0) {
      t.add_row({"mean obj / fresh-SSS obj",
                 fmt(stats.mean_objective_ratio, 4)});
    }
    t.print(std::cout);
    std::cout << "\ndecision digest: " << std::hex << stats.digest
              << std::dec << "\n";

    SimResult sim;
    if (simulate) {
      // Measured ground truth for the final chip state the analytic
      // decisions produced. A trace can leave the chip empty, and an empty
      // chip has no problem to simulate.
      if (!engine.residents().empty()) {
        SimConfig sim_config;
        sim_config.warmup_cycles = 500;
        sim_config.measure_cycles = 5000;
        sim = run_simulation(engine.snapshot_problem(),
                             engine.snapshot_mapping(), sim_config);
        std::cout << "\nfinal-snapshot netsim:\n";
        TextTable st({"metric", "value"});
        st.add_row({"measured G-APL [cycles]", fmt(sim.g_apl)});
        st.add_row({"measured max APL [cycles]", fmt(sim.max_apl)});
        st.add_row({"packets measured",
                    std::to_string(sim.packets_measured)});
        st.add_row({"link utilization", fmt(sim.load.link_utilization, 4)});
        st.print(std::cout);
      }
      if (sim.packets_measured == 0) {
        std::cout << "(snapshot has no resident traffic to simulate)\n";
      }
    }

    if (!json_path.empty()) {
      std::ostringstream digest;
      digest << std::hex << stats.digest;
      obs::JsonValue doc = obs::JsonValue::object();
      doc["events"] = std::uint64_t{stats.events};
      doc["decisions_per_sec"] = decisions_per_sec;
      doc["mean_decision_us"] = mean_us;
      doc["p99_decision_us"] = p99;
      doc["accepted"] = std::uint64_t{stats.accepted};
      doc["rejected"] = std::uint64_t{stats.rejected};
      doc["fallbacks"] = std::uint64_t{stats.fallbacks};
      doc["degraded"] = std::uint64_t{stats.degraded};
      doc["moved_threads"] = stats.moved_threads;
      doc["mean_objective_ratio"] = stats.mean_objective_ratio;
      if (simulate) {
        doc["sim_g_apl"] = sim.g_apl;
        doc["sim_max_apl"] = sim.max_apl;
        doc["sim_packets_measured"] = sim.packets_measured;
      }
      doc["digest"] = digest.str();
      std::ofstream os(json_path);
      os << doc.dump(2) << "\n";
      if (!os) throw Error("cannot write " + json_path);
      std::cout << "[json: " << json_path << "]\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  return 0;
}
