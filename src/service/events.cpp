#include "service/events.h"

#include <utility>

#include "util/error.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap::service {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kArrival: return "arrival";
    case EventKind::kDeparture: return "departure";
    case EventKind::kPhaseChange: return "phase_change";
  }
  return "?";
}

namespace {

/// One application's rate vectors from the Table-3 synthesis layer. The
/// seed is forked per event so every arrival/phase draws an independent,
/// reproducible rate profile.
Application synthesize_app(const std::string& config_name,
                           std::uint64_t seed, std::uint32_t threads,
                           std::uint64_t app_id) {
  SynthesisOptions opt;
  opt.num_applications = 1;
  opt.threads_per_app = threads;
  const Workload one =
      synthesize_workload(parsec_config(config_name), seed, opt);
  Application app = one.application(0);
  app.name = "app" + std::to_string(app_id);
  return app;
}

const char* kConfigCycle[] = {"C1", "C2", "C3", "C4",
                              "C5", "C6", "C7", "C8"};

/// Fraction of events (given live applications exist) that are phase
/// changes; the rest split between arrivals and departures, biased towards
/// arrivals while the chip is mostly empty.
constexpr double kPhaseChangeFraction = 0.25;

}  // namespace

std::vector<Event> generate_trace(const TraceConfig& config) {
  NOCMAP_REQUIRE(config.num_tiles > 0, "trace needs a positive tile count");
  NOCMAP_REQUIRE(config.min_threads_per_app >= 1 &&
                     config.min_threads_per_app <= config.max_threads_per_app,
                 "trace thread-count range is empty");
  NOCMAP_REQUIRE(config.min_threads_per_app <= config.num_tiles,
                 "smallest application exceeds the chip");

  Rng rng(config.seed, 0x73657276ULL);  // "serv"
  std::vector<Event> events;
  events.reserve(config.num_events);

  // The generator's mirror of the service's resident set: ids + sizes.
  struct Live {
    std::uint64_t id;
    std::uint32_t threads;
  };
  std::vector<Live> live;
  std::uint32_t occupied = 0;
  std::uint64_t next_id = 1;

  const auto config_for = [&](std::uint64_t id) -> std::string {
    if (!config.config.empty()) return config.config;
    return kConfigCycle[id % 8];
  };

  while (events.size() < config.num_events) {
    const double r = rng.uniform();
    const double occupancy =
        static_cast<double>(occupied) / static_cast<double>(config.num_tiles);
    if (!live.empty() && r < kPhaseChangeFraction) {
      // Phase change of a random live application: same thread count, a
      // fresh rate draw (possibly a different Table-3 configuration).
      const Live& target =
          live[rng.uniform_u32(static_cast<std::uint32_t>(live.size()))];
      Event ev;
      ev.kind = EventKind::kPhaseChange;
      ev.app_id = target.id;
      ev.app = synthesize_app(config_for(target.id + events.size()),
                              rng.fork(events.size()).uniform_u32(1u << 30),
                              target.threads, target.id);
      events.push_back(std::move(ev));
      continue;
    }
    // Split the remainder between arrivals and departures; favour arrivals
    // on an empty chip and departures on a full one so occupancy churns
    // through the whole range instead of saturating.
    const double p_departure = live.empty() ? 0.0 : 0.15 + 0.55 * occupancy;
    if (rng.uniform() < p_departure) {
      const std::size_t idx =
          rng.uniform_u32(static_cast<std::uint32_t>(live.size()));
      Event ev;
      ev.kind = EventKind::kDeparture;
      ev.app_id = live[idx].id;
      events.push_back(std::move(ev));
      occupied -= live[idx].threads;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    const std::uint32_t threads =
        config.min_threads_per_app +
        rng.uniform_u32(config.max_threads_per_app -
                        config.min_threads_per_app + 1);
    const std::uint64_t id = next_id++;
    Event ev;
    ev.kind = EventKind::kArrival;
    ev.app_id = id;
    ev.app = synthesize_app(config_for(id),
                            rng.fork(~events.size()).uniform_u32(1u << 30),
                            threads, id);
    events.push_back(std::move(ev));
    // Mirror the service's admission rule so the live set stays in sync:
    // an over-capacity arrival is emitted (to exercise rejection) but does
    // not join the live set.
    if (threads <= config.num_tiles - occupied) {
      live.push_back({id, threads});
      occupied += threads;
    }
  }
  return events;
}

}  // namespace nocmap::service
