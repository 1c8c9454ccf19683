#include "service/mapping_service.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/metrics.h"
#include "core/remap.h"
#include "core/sam.h"
#include "obs/metrics.h"

namespace nocmap::service {

namespace {

const obs::Counter c_events("service.events");
const obs::Counter c_arrivals("service.arrivals");
const obs::Counter c_rejections("service.rejections");
const obs::Counter c_departures("service.departures");
const obs::Counter c_phase_changes("service.phase_changes");
const obs::Counter c_fallbacks("service.fallbacks");
const obs::Counter c_migrations("service.migrations");
const obs::Timer t_decision("service.decision");
const obs::Gauge g_occupied("service.occupied_tiles");

/// Every thread's rates finite and non-negative (ThreadProfile::valid);
/// anything else has no finite mapping cost.
bool valid_rates(const Application& app) {
  return std::all_of(app.threads.begin(), app.threads.end(),
                     [](const ThreadProfile& t) { return t.valid(); });
}

}  // namespace

MappingService::MappingService(TileLatencyModel chip, ServiceConfig config)
    : chip_(std::move(chip)), config_(config) {
  NOCMAP_REQUIRE(config_.degradation_threshold > 1.0,
                 "degradation threshold must exceed 1");
  occupied_.assign(num_tiles(), 0);
  tiles_by_tc_ = SortSelectSwapMapper::sorted_tiles(chip_);
  all_tiles_.resize(num_tiles());
  std::iota(all_tiles_.begin(), all_tiles_.end(), TileId{0});
}

double MappingService::objective() const {
  double worst = 0.0;
  for (const Resident& r : residents_) {
    if (r.volume > 0.0) worst = std::max(worst, r.apl());
  }
  return worst;
}

double MappingService::lower_bound() const {
  double worst = 0.0;
  for (const Resident& r : residents_) {
    worst = std::max(worst, r.relaxed_bound);
  }
  return worst;
}

std::vector<std::uint64_t> MappingService::occupancy() const {
  std::vector<std::uint64_t> tiles(num_tiles(), kFreeTile);
  for (const Resident& r : residents_) {
    for (const TileId k : r.tiles) tiles[k] = r.id;
  }
  return tiles;
}

ObmProblem MappingService::snapshot_problem() const {
  NOCMAP_REQUIRE(!residents_.empty(),
                 "snapshot of an empty chip has no OBM instance");
  std::vector<Application> apps;
  apps.reserve(residents_.size());
  for (const Resident& r : residents_) apps.push_back(r.app);
  Workload workload{std::move(apps)};
  if (workload.num_threads() < num_tiles()) {
    workload = workload.padded_to(num_tiles());
  }
  return ObmProblem(chip_, std::move(workload));
}

Mapping MappingService::snapshot_mapping() const {
  Mapping mapping;
  mapping.thread_to_tile.reserve(num_tiles());
  for (const Resident& r : residents_) {
    mapping.thread_to_tile.insert(mapping.thread_to_tile.end(),
                                  r.tiles.begin(), r.tiles.end());
  }
  // Pad threads sit on the free tiles in ascending order.
  for (TileId k = 0; k < occupied_.size(); ++k) {
    if (!occupied_[k]) mapping.thread_to_tile.push_back(k);
  }
  return mapping;
}

Resident* MappingService::find_resident(std::uint64_t app_id) {
  for (Resident& r : residents_) {
    if (r.id == app_id) return &r;
  }
  return nullptr;
}

void MappingService::refresh_apl(Resident& r) const {
  r.weighted = 0.0;
  r.volume = 0.0;
  for (std::size_t t = 0; t < r.app.num_threads(); ++t) {
    const ThreadProfile& prof = r.app.threads[t];
    const TileId k = r.tiles[t];
    r.weighted += sam_cost(prof, chip_, k);
    r.volume += prof.total_rate();
  }
}

void MappingService::refresh_relaxed_bound(Resident& r) {
  // The application alone picking its favourite tiles chip-wide: a
  // rectangular n×N assignment (core/bounds.h rationale), solved over the
  // eq.-13 costs. Rates are fixed, so minimizing Σ cost minimizes APL.
  if (r.volume <= 0.0) {
    r.relaxed_bound = 0.0;
    return;
  }
  const Assignment& best = bound_ws_.solve_warm(
      sam_cost_view(r.app.threads, all_tiles_, chip_, cost_buf_));
  r.relaxed_bound = best.total_cost / r.volume;
}

std::vector<TileId> MappingService::penalized_assign(
    const Application& app, std::span<const TileId> tiles,
    std::span<const TileId> old_tiles, double penalty_cycles) {
  const Assignment& assignment = ws_.solve_warm(sam_cost_view(
      app.threads, tiles, chip_, cost_buf_, old_tiles, penalty_cycles));
  std::vector<TileId> result(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    result[t] = tiles[assignment.row_to_col[t]];
  }
  return result;
}

std::vector<TileId> MappingService::budgeted_assign(
    const Application& app, const std::vector<TileId>& tiles,
    const std::vector<TileId>& old_tiles, std::size_t budget,
    std::size_t* moved_out) {
  std::vector<TileId> best = penalized_assign(app, tiles, old_tiles, 0.0);
  *moved_out = count_migrations(app.threads, old_tiles, best);
  if (*moved_out <= budget) return best;
  if (budget > 0) {
    const double penalty = smallest_fitting_penalty(
        penalty_line(app.threads, best, chip_, old_tiles), [&](double lambda) {
          std::vector<TileId> sticky =
              penalized_assign(app, tiles, old_tiles, lambda);
          const std::size_t moved =
              count_migrations(app.threads, old_tiles, sticky);
          const PenaltyProbe probe{
              penalty_line(app.threads, sticky, chip_, old_tiles),
              moved <= budget};
          if (probe.fits) {
            best = std::move(sticky);
            *moved_out = moved;
          }
          return probe;
        });
    if (std::isfinite(penalty)) return best;
  }
  // `old_tiles` covers the same tile set (the caller's contract), so
  // staying put is always feasible: the answer for a zero budget, and for
  // a search that finds no penalty (unreachable, since staying put fits).
  *moved_out = 0;
  return old_tiles;
}

Decision MappingService::handle_arrival(const Event& event, Decision d) {
  c_arrivals.add();
  const std::size_t n = event.app.num_threads();
  const std::size_t free_tiles = num_tiles() - occupied_count_;
  if (n == 0 || n > free_tiles || find_resident(event.app_id) != nullptr ||
      !valid_rates(event.app)) {
    c_rejections.add();
    d.accepted = false;
    return d;
  }

  // Free tiles in TC-ascending order, then the SSS "select" spread: one
  // tile from the middle of each of n equal sections, so the newcomer gets
  // an even mix of good and bad cache-latency tiles instead of hogging
  // (or being dumped on) one end of the free list.
  std::vector<TileId> free_by_tc;
  free_by_tc.reserve(free_tiles);
  for (const TileId k : tiles_by_tc_) {
    if (!occupied_[k]) free_by_tc.push_back(k);
  }
  std::vector<TileId> selected(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t lo = t * free_tiles / n;
    const std::size_t hi = (t + 1) * free_tiles / n;
    selected[t] = free_by_tc[lo + (hi - lo) / 2];
  }

  Resident r;
  r.id = event.app_id;
  r.app = event.app;
  r.tiles = penalized_assign(r.app, selected, {}, 0.0);
  refresh_apl(r);
  refresh_relaxed_bound(r);
  for (const TileId k : r.tiles) occupied_[k] = 1;
  occupied_count_ += n;
  residents_.push_back(std::move(r));
  degraded_mode_ = false;  // the resident set changed; fallback may help now
  d.placed_threads = n;
  return d;
}

Decision MappingService::handle_departure(const Event& event, Decision d) {
  c_departures.add();
  const auto it =
      std::find_if(residents_.begin(), residents_.end(),
                   [&](const Resident& r) { return r.id == event.app_id; });
  if (it == residents_.end()) {
    c_rejections.add();
    d.accepted = false;
    return d;
  }
  for (const TileId k : it->tiles) occupied_[k] = 0;
  occupied_count_ -= it->tiles.size();
  residents_.erase(it);
  degraded_mode_ = false;
  return d;
}

Decision MappingService::handle_phase_change(const Event& event, Decision d) {
  c_phase_changes.add();
  Resident* r = find_resident(event.app_id);
  if (r == nullptr || event.app.num_threads() != r->app.num_threads() ||
      !valid_rates(event.app)) {
    c_rejections.add();
    d.accepted = false;
    return d;
  }
  // Same tile set, new rates: re-assign within the region under the
  // migration budget. Columns are the sorted tile set so the cost matrix
  // is canonical; stickiness is against the current per-thread tiles.
  std::vector<TileId> region = r->tiles;
  std::sort(region.begin(), region.end());
  Application updated = r->app;
  updated.threads = event.app.threads;
  std::size_t moved = 0;
  std::vector<TileId> new_tiles = budgeted_assign(
      updated, region, r->tiles, config_.migration_budget, &moved);
  r->app = std::move(updated);
  r->tiles = std::move(new_tiles);
  refresh_apl(*r);
  refresh_relaxed_bound(*r);
  d.moved_threads = moved;
  return d;
}

std::size_t MappingService::run_fallback(std::size_t budget) {
  const ObmProblem problem = snapshot_problem();
  const Mapping old = snapshot_mapping();
  const BudgetedRemapResult r =
      remap_budgeted(problem, old, budget, config_.sss);
  // A revert keeps every resident where it is: nothing to apply.
  if (r.reverted_to_old) return 0;

  // Apply the remap: snapshot thread order is resident order, so walk it.
  std::size_t j = 0;
  std::fill(occupied_.begin(), occupied_.end(), 0);
  for (Resident& resident : residents_) {
    for (std::size_t t = 0; t < resident.tiles.size(); ++t) {
      resident.tiles[t] = r.remap.mapping.thread_to_tile[j++];
      occupied_[resident.tiles[t]] = 1;
    }
    refresh_apl(resident);  // volume and relaxed bound are placement-free
  }
  return r.remap.moved_threads;
}

void MappingService::maybe_fallback(Decision& d) {
  if (residents_.empty()) return;
  const double threshold = config_.degradation_threshold;
  if (objective() <= threshold * lower_bound()) return;

  // While budget-bound, don't re-run the (expensive) full solve for every
  // event: wait for the resident set to change or the objective to drift
  // further past the last fallback's result.
  const bool attempt =
      !degraded_mode_ || objective() > 1.05 * last_fallback_objective_;
  const std::size_t budget_left =
      config_.migration_budget >= d.moved_threads
          ? config_.migration_budget - d.moved_threads
          : 0;
  if (attempt && budget_left > 0) {
    c_fallbacks.add();
    d.used_fallback = true;
    d.moved_threads += run_fallback(budget_left);
    last_fallback_objective_ = objective();
    degraded_mode_ = objective() > threshold * lower_bound();
  }
  d.quality_degraded = objective() > threshold * lower_bound();
}

Decision MappingService::handle(const Event& event) {
  const obs::ScopedTimer scope(t_decision);
  c_events.add();

  Decision d;
  d.kind = event.kind;
  d.app_id = event.app_id;
  switch (event.kind) {
    case EventKind::kArrival:
      d = handle_arrival(event, std::move(d));
      break;
    case EventKind::kDeparture:
      d = handle_departure(event, std::move(d));
      break;
    case EventKind::kPhaseChange:
      d = handle_phase_change(event, std::move(d));
      break;
  }
  if (d.accepted) maybe_fallback(d);

  d.objective = objective();
  d.lower_bound = lower_bound();
  d.residents = static_cast<std::uint32_t>(residents_.size());
  d.occupied_tiles = static_cast<std::uint32_t>(occupied_count_);
  c_migrations.add(d.moved_threads);
  g_occupied.set_max(static_cast<double>(occupied_count_));
  return d;
}

}  // namespace nocmap::service
