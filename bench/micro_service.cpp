// Microbenchmark of the online mapping service (DESIGN.md §13), emitting
// the committed perf baseline BENCH_service.json, the `service` section of
// this bench's RunReport (gated by bench/compare_bench.py in CI's release
// leg, like the other micro benches).
//
// One scenario, sized like the paper's evaluation platform: a 100k-event
// churn trace (arrivals / departures / phase changes) replayed against an
// 8x8 chip with a migration budget of 8 threads per event and the default
// 1.25x fallback threshold. Two replays run back to back:
//
//  * timing replay  — nothing but the service on the hot path; produces the
//                     gated metrics (service.run_ms, mean_decision_us and
//                     p99_decision_us) best-of-2.
//  * quality replay — a fresh engine over the same trace, sampling the
//                     incremental objective against a from-scratch serial
//                     SSS solve every 500 accepted events; produces the
//                     ungated mean objective ratio (>= 1; how far the
//                     incremental path drifts from batch quality).
//
// Optional argv[1] is the output directory (default ".").
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "obs/run_report.h"
#include "service/replay.h"

namespace {

using namespace nocmap;

constexpr std::size_t kEvents = 100000;

service::MappingService make_engine() {
  service::ServiceConfig config;
  config.migration_budget = 8;
  config.degradation_threshold = 1.25;
  return service::MappingService(
      TileLatencyModel(Mesh::square(8), LatencyParams{}), config);
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : ".";
  bench::print_header("micro_service — online mapping service under churn",
                      "100k events, 8x8 chip, budget 8, threshold 1.25");

  service::TraceConfig trace;
  trace.seed = bench::kWorkloadSeed;
  trace.num_events = kEvents;
  trace.num_tiles = 64;
  const std::vector<service::Event> events = service::generate_trace(trace);

  // Timing replay, best of 2 (each replay is seconds-scale).
  service::ReplayStats best;
  best.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    service::MappingService engine = make_engine();
    service::ReplayStats stats = service::replay_trace(engine, events);
    if (stats.wall_ms < best.wall_ms) best = std::move(stats);
  }
  const double mean_us =
      best.wall_ms * 1000.0 / static_cast<double>(best.events);
  const double p99_us = best.decision_ns.percentile(0.99) / 1000.0;
  const double decisions_per_sec =
      1000.0 * static_cast<double>(best.events) / best.wall_ms;

  // Quality replay: incremental objective vs from-scratch SSS, sampled.
  service::ReplayOptions quality_options;
  quality_options.objective_sample_period = 500;
  service::MappingService quality_engine = make_engine();
  const service::ReplayStats quality =
      service::replay_trace(quality_engine, events, quality_options);

  std::cout << "events: " << best.events << " (" << best.accepted
            << " accepted, " << best.rejected << " rejected, "
            << best.fallbacks << " fallback re-solves)\n"
            << "run: " << best.wall_ms << " ms  ("
            << decisions_per_sec << " decisions/sec)\n"
            << "decision latency: mean " << mean_us << " us, p99 " << p99_us
            << " us\n"
            << "objective vs from-scratch SSS: mean ratio "
            << quality.mean_objective_ratio << " over "
            << quality.objective_samples << " samples\n"
            << "decision digest: " << std::hex << best.digest << std::dec
            << "\n";

  obs::RunReport& report = obs::RunReport::global();
  report.set("service.events", std::uint64_t{kEvents});
  report.set("service.run_ms", best.wall_ms);
  report.set("service.mean_decision_us", mean_us);
  report.set("service.p99_decision_us", p99_us);
  report.set("service.decisions_per_sec", decisions_per_sec);
  report.set("service.mean_objective_ratio", quality.mean_objective_ratio);
  report.set("service.fallbacks", std::uint64_t{best.fallbacks});
  bench::save_baseline((out_dir / "BENCH_service.json").string(),
                       {"service"});
  return 0;
}
