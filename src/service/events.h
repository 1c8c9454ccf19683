// Event vocabulary of the online mapping service (DESIGN.md §13).
//
// A long-lived CMP is driven by a stream of workload events: applications
// arrive (and must be admitted and placed), depart (freeing their tiles,
// usually a non-contiguous region), and change phase (same threads, new
// rate statistics — PARSEC phases differ mostly in their cache/memory
// request rates). Every event carries an external application id so a
// trace is self-describing and replayable.
//
// generate_trace() synthesizes a deterministic event stream from one seed
// (once applications are live, a quarter of the events are phase changes).
// It simulates the chip's admission bookkeeping (an arrival fits iff its
// thread count is at most the free-tile count, exactly the MappingService
// admission rule) so departures and phase changes always reference live
// applications, while arrivals deliberately include over-capacity requests
// to exercise the rejection path. Per-application rate vectors come from
// the Table-3 synthesis layer, so traces share the paper's workload
// statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace nocmap::service {

enum class EventKind : std::uint8_t { kArrival, kDeparture, kPhaseChange };

/// One service event. `app` is the full application for arrivals and the
/// replacement thread profiles (same thread count) for phase changes;
/// departures carry only the id.
struct Event {
  EventKind kind = EventKind::kArrival;
  /// External application id, unique per arrival within a trace.
  std::uint64_t app_id = 0;
  Application app;
};

const char* event_kind_name(EventKind kind);

/// Knobs for the deterministic trace generator.
struct TraceConfig {
  std::uint64_t seed = 1;
  std::size_t num_events = 1000;
  /// Tile capacity the generator's admission model assumes (must match the
  /// chip the trace will be replayed against for departures to line up).
  std::uint32_t num_tiles = 64;
  std::uint32_t min_threads_per_app = 2;
  std::uint32_t max_threads_per_app = 16;
  /// Table-3 configuration for rate synthesis; empty cycles C1..C8.
  std::string config;
};

/// Synthesizes `config.num_events` events deterministically from the seed.
/// Throws nocmap::Error on invalid knobs (zero sizes, min > max, more
/// min-threads than tiles).
std::vector<Event> generate_trace(const TraceConfig& config);

}  // namespace nocmap::service
