#include "service/replay.h"

#include <bit>
#include <chrono>

#include "core/metrics.h"
#include "util/rng.h"

namespace nocmap::service {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

std::uint64_t digest_decision(std::uint64_t h, const Decision& d) {
  h = mix(h, static_cast<std::uint64_t>(d.kind));
  h = mix(h, d.app_id);
  h = mix(h, d.accepted ? 1 : 0);
  h = mix(h, d.placed_threads);
  h = mix(h, d.moved_threads);
  h = mix(h, (d.used_fallback ? 2ULL : 0ULL) |
                 (d.quality_degraded ? 1ULL : 0ULL));
  h = mix(h, std::bit_cast<std::uint64_t>(d.objective));
  h = mix(h, std::bit_cast<std::uint64_t>(d.lower_bound));
  h = mix(h, (static_cast<std::uint64_t>(d.residents) << 32) |
                 d.occupied_tiles);
  return h;
}

}  // namespace

ReplayStats replay_trace(MappingService& service,
                         std::span<const Event> events,
                         const ReplayOptions& options) {
  using clock = std::chrono::steady_clock;
  ReplayStats stats;
  stats.decisions.reserve(events.size());

  double ratio_sum = 0.0;
  std::size_t since_sample = 0;
  const auto run_start = clock::now();
  for (const Event& event : events) {
    const auto t0 = clock::now();
    const Decision d = service.handle(event);
    const auto elapsed = clock::now() - t0;
    stats.decision_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));

    ++stats.events;
    if (d.accepted) {
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }
    if (d.used_fallback) ++stats.fallbacks;
    if (d.quality_degraded) ++stats.degraded;
    stats.moved_threads += d.moved_threads;
    stats.digest = digest_decision(stats.digest, d);
    stats.decisions.push_back(d);

    if (options.objective_sample_period > 0 && d.accepted &&
        d.residents > 0 &&
        ++since_sample >= options.objective_sample_period) {
      since_sample = 0;
      const ObmProblem fresh_problem = service.snapshot_problem();
      SortSelectSwapMapper sss;
      const double fresh =
          evaluate(fresh_problem, sss.map(fresh_problem)).max_apl;
      if (fresh > 0.0) {
        ratio_sum += service.objective() / fresh;
        ++stats.objective_samples;
      }
    }
  }
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(clock::now() - run_start)
          .count();
  if (stats.objective_samples > 0) {
    stats.mean_objective_ratio =
        ratio_sum / static_cast<double>(stats.objective_samples);
  }

  // Fold the final placement in, so two replays only share a digest when
  // they also end in the same chip state.
  for (const Resident& r : service.residents()) {
    stats.digest = mix(stats.digest, r.id);
    for (const TileId k : r.tiles) stats.digest = mix(stats.digest, k);
  }
  return stats;
}

}  // namespace nocmap::service
