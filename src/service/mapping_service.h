// Online mapping service: incremental remap decisions under churn
// (DESIGN.md §13; the run-time mapping setting of Benhaoua et al. in
// PAPERS.md, productionized for the paper's OBM problem).
//
// The batch mappers solve one fixed instance; MappingService is the
// long-lived engine a datacenter scheduler would actually run against a
// CMP: it consumes a stream of arrival / departure / phase-change events
// against persistent chip state and produces one remap decision per event.
//
// Decision policy, in order:
//
//  * Admission control — an arrival is accepted iff its thread count fits
//    the free tiles; nothing resident is ever displaced to admit.
//  * Incremental by default — an accepted arrival is placed on *free* tiles
//    only (an SSS-style even spread over the TC-sorted free list, threads
//    assigned by the Hungarian kernel); a departure just frees its region;
//    a phase change re-assigns threads within the application's own tile
//    set. Resident applications are untouched, so the common case moves
//    zero resident threads.
//  * Migration budget — every decision moves at most
//    `ServiceConfig::migration_budget` resident threads (a hard cap;
//    zero-rate threads move free, matching core/remap.*).
//  * Bounded fallback — incremental decisions slowly drift from what a
//    from-scratch solve would achieve (fragmented free regions, stale
//    placements). After each event the service compares its objective
//    (max-APL over residents) against a per-application relaxed lower
//    bound (core/bounds.h, maintained incrementally: each application's
//    bound is independent of the others); when the ratio exceeds
//    `degradation_threshold` it re-solves from scratch via
//    remap_budgeted(), still honoring the event's remaining migration
//    budget. When even the fallback cannot close the gap (budget-bound),
//    the decision is flagged `quality_degraded` and fallbacks are
//    suppressed until the resident set changes again.
//
// Cost matrices come from core/sam.h's sam_cost_view, and an over-budget
// phase change runs remap_budgeted's λ search (smallest_fitting_penalty, a
// walk over the breakpoints of the penalized cost, each priced by
// core/sam.h's penalty_line). One always-warm AssignmentWorkspace is
// carried across *all* events, so the kernel's column potentials persist
// between decisions; the rectangular relaxed-bound solves run cold and
// prune the columns no optimal matching can use (assign/hungarian.h).
//
// Determinism: decisions are a pure function of (chip, config, event
// sequence). The only parallel component is the fallback's SSS solve,
// which is bit-identical at any worker count, so replaying a trace at 1,
// 2, or 8 workers produces byte-identical decision streams
// (tests/test_service.cpp pins this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "assign/hungarian.h"
#include "core/problem.h"
#include "core/sss_mapper.h"
#include "service/events.h"

namespace nocmap::service {

struct ServiceConfig {
  /// Hard cap on resident threads moved per event (SIZE_MAX = unbounded).
  std::size_t migration_budget = static_cast<std::size_t>(-1);
  /// Fallback trigger: re-solve from scratch when objective exceeds
  /// threshold × lower bound. Must be > 1.
  double degradation_threshold = 1.25;
  /// Options of the fallback's from-scratch SSS solve. Its default
  /// ParallelConfig runs the fallback inline; any worker count gives
  /// identical decisions.
  SssOptions sss;
};

/// The outcome of one event. Value-comparable so determinism tests can
/// assert whole decision streams are identical.
struct Decision {
  EventKind kind = EventKind::kArrival;
  std::uint64_t app_id = 0;
  /// False for a rejected arrival (no capacity / empty app) or a
  /// departure / phase change naming an unknown application or the wrong
  /// thread count, and for an arrival or phase change carrying a rate that
  /// is not finite and non-negative; the chip state is then unchanged.
  bool accepted = true;
  /// Newly placed threads (arrivals only; placements are not migrations).
  std::size_t placed_threads = 0;
  /// Resident threads whose tile changed — always <= migration_budget.
  std::size_t moved_threads = 0;
  bool used_fallback = false;
  /// Objective still above threshold × lower bound after this event (the
  /// budget blocked a full rebalance).
  bool quality_degraded = false;
  /// max-APL over resident applications after the event (0 when empty).
  double objective = 0.0;
  /// max over residents of the relaxed per-application APL lower bound.
  double lower_bound = 0.0;
  std::uint32_t residents = 0;
  std::uint32_t occupied_tiles = 0;

  friend bool operator==(const Decision&, const Decision&) = default;
};

/// One admitted application and its current placement.
struct Resident {
  std::uint64_t id = 0;
  Application app;
  /// tiles[t] is the tile of the application's t-th thread.
  std::vector<TileId> tiles;
  /// Cached APL pieces: Σ c·TC + m·TM over threads, and Σ (c+m).
  double weighted = 0.0;
  double volume = 0.0;
  /// Relaxed APL lower bound (the application alone picking its favourite
  /// tiles chip-wide); independent of other residents, so incrementally
  /// maintainable.
  double relaxed_bound = 0.0;

  double apl() const { return volume > 0.0 ? weighted / volume : 0.0; }
};

class MappingService {
 public:
  explicit MappingService(TileLatencyModel chip, ServiceConfig config = {});

  /// Processes one event and returns the decision. Never throws on
  /// semantically invalid events (unknown id, over-capacity arrival,
  /// non-finite or negative rate); those come back `accepted == false`
  /// with the state unchanged.
  Decision handle(const Event& event);

  const TileLatencyModel& chip() const { return chip_; }
  const ServiceConfig& config() const { return config_; }
  std::size_t num_tiles() const { return chip_.mesh().num_tiles(); }

  /// Resident applications in arrival order.
  const std::vector<Resident>& residents() const { return residents_; }
  std::size_t occupied_tiles() const { return occupied_count_; }

  /// Current max-APL over residents / max relaxed bound (0 when empty).
  double objective() const;
  double lower_bound() const;

  /// Occupancy marker for a free tile in occupancy().
  static constexpr std::uint64_t kFreeTile = ~0ULL;
  /// tile -> owning app_id (kFreeTile where idle); recomputed on call so
  /// oracles can diff it against their own bookkeeping.
  std::vector<std::uint64_t> occupancy() const;

  /// The resident set as a padded OBM instance (threads in arrival order,
  /// idle pad up to the tile count) and the current placement aligned to
  /// it (pad threads on the free tiles in ascending order). Requires at
  /// least one resident. These are what the fallback re-solves and what
  /// oracles/tests evaluate from scratch.
  ObmProblem snapshot_problem() const;
  Mapping snapshot_mapping() const;

 private:
  Decision handle_arrival(const Event& event, Decision d);
  Decision handle_departure(const Event& event, Decision d);
  Decision handle_phase_change(const Event& event, Decision d);

  /// Re-assigns `app`'s threads onto `tiles` — the set `old_tiles` already
  /// covers — minimizing latency cost with at most `budget` moves away from
  /// `old_tiles`. Returns the per-thread tile choice; `moved_out` counts
  /// positive-rate threads whose tile changed.
  std::vector<TileId> budgeted_assign(const Application& app,
                                      const std::vector<TileId>& tiles,
                                      const std::vector<TileId>& old_tiles,
                                      std::size_t budget,
                                      std::size_t* moved_out);

  /// Latency-cost assignment of app threads onto `tiles` with migration
  /// penalty λ against old_tiles (none when empty): an arrival's placement
  /// and the inner solve of budgeted_assign.
  std::vector<TileId> penalized_assign(const Application& app,
                                       std::span<const TileId> tiles,
                                       std::span<const TileId> old_tiles,
                                       double penalty_cycles);

  Resident* find_resident(std::uint64_t app_id);
  void refresh_apl(Resident& r) const;
  void refresh_relaxed_bound(Resident& r);
  /// Runs the budgeted from-scratch re-solve; returns threads moved.
  std::size_t run_fallback(std::size_t budget);
  /// Degradation check + (possibly) fallback, shared by all event paths.
  void maybe_fallback(Decision& d);

  TileLatencyModel chip_;
  ServiceConfig config_;
  std::vector<Resident> residents_;
  std::vector<char> occupied_;  // per tile
  std::size_t occupied_count_ = 0;
  /// All tiles sorted by TC ascending (SSS stage-1 order), fixed per chip.
  std::vector<TileId> tiles_by_tc_;
  /// All tiles ascending: the columns of the relaxed-bound solves.
  std::vector<TileId> all_tiles_;
  /// The cross-event workspace for placement / phase-change solves.
  AssignmentWorkspace ws_;
  /// Workspace for the relaxed-bound solves. They are n×N and so run cold
  /// unless one application fills the chip; keeping them apart only stops
  /// them from overwriting ws_'s column potentials.
  AssignmentWorkspace bound_ws_;
  std::vector<double> cost_buf_;
  /// Fallback suppression while budget-bound (see header comment).
  bool degraded_mode_ = false;
  double last_fallback_objective_ = 0.0;
};

}  // namespace nocmap::service
