#include "core/evaluator.h"

#include <algorithm>

#include "core/metrics.h"

namespace nocmap {

MappingEvaluator::MappingEvaluator(const ObmProblem& problem, Mapping initial,
                                   const ThreadCostCache& cache)
    : problem_(&problem), cache_(&cache), mapping_(std::move(initial)) {
  NOCMAP_REQUIRE(mapping_.is_valid_permutation(problem.num_threads()),
                 "initial mapping must be a valid permutation");
  NOCMAP_REQUIRE(cache.num_threads() == problem.num_threads() &&
                     cache.num_tiles() == problem.num_tiles(),
                 "cost cache does not match the problem");
  const Workload& wl = problem.workload();
  const std::size_t num_apps = wl.num_applications();

  tile_to_thread_.assign(problem.num_tiles(), 0);
  for (std::size_t j = 0; j < mapping_.size(); ++j) {
    tile_to_thread_[mapping_.tile_of(j)] = j;
  }
  numerator_.assign(num_apps, 0.0);
  denominator_.assign(num_apps, 0.0);
  for (std::size_t i = 0; i < num_apps; ++i) {
    recompute_app(i);
    for (std::size_t j = wl.first_thread(i); j < wl.last_thread(i); ++j) {
      denominator_[i] += wl.thread(j).total_rate();
    }
    total_denominator_ += denominator_[i];
  }
}

double MappingEvaluator::apl(std::size_t app) const {
  NOCMAP_REQUIRE(app < numerator_.size(), "application index out of range");
  return denominator_[app] > 0.0 ? numerator_[app] / denominator_[app] : 0.0;
}

double MappingEvaluator::max_apl() const {
  double best = 0.0;
  for (std::size_t i = 0; i < numerator_.size(); ++i) {
    if (denominator_[i] > 0.0) {
      best = std::max(best, numerator_[i] / denominator_[i]);
    }
  }
  return best;
}

double MappingEvaluator::objective() const {
  double best = 0.0;
  for (std::size_t i = 0; i < numerator_.size(); ++i) {
    if (denominator_[i] > 0.0) {
      best = std::max(best, problem_->app_weight(i) * numerator_[i] /
                                denominator_[i]);
    }
  }
  return best;
}

double MappingEvaluator::g_apl() const {
  if (total_denominator_ <= 0.0) return 0.0;
  double total_numerator = 0.0;
  for (const double n : numerator_) total_numerator += n;
  return total_numerator / total_denominator_;
}

void MappingEvaluator::place_thread(std::size_t j, TileId tile) {
  mapping_.thread_to_tile[j] = tile;
  tile_to_thread_[tile] = j;
}

void MappingEvaluator::recompute_app(std::size_t app) {
  const Workload& wl = problem_->workload();
  double sum = 0.0;
  for (std::size_t j = wl.first_thread(app); j < wl.last_thread(app); ++j) {
    sum += thread_cost(j, mapping_.tile_of(j));
  }
  numerator_[app] = sum;
}

void MappingEvaluator::swap_threads(std::size_t j1, std::size_t j2) {
  NOCMAP_REQUIRE(j1 < mapping_.size() && j2 < mapping_.size(),
                 "thread index out of range");
  if (j1 == j2) return;
  const TileId t1 = mapping_.tile_of(j1);
  const TileId t2 = mapping_.tile_of(j2);
  place_thread(j1, t2);
  place_thread(j2, t1);
  const Workload& wl = problem_->workload();
  const std::size_t a1 = wl.application_of(j1);
  const std::size_t a2 = wl.application_of(j2);
  recompute_app(std::min(a1, a2));
  if (a1 != a2) recompute_app(std::max(a1, a2));
}

void MappingEvaluator::apply_group(std::span<const std::size_t> threads,
                                   std::span<const TileId> tiles) {
  NOCMAP_REQUIRE(threads.size() == tiles.size(),
                 "group thread/tile arity mismatch");
#ifndef NDEBUG
  // The tile multiset must equal the tiles the group currently occupies,
  // otherwise the permutation would break.
  std::vector<TileId> held;
  held.reserve(threads.size());
  for (std::size_t j : threads) held.push_back(mapping_.tile_of(j));
  std::vector<TileId> target(tiles.begin(), tiles.end());
  std::sort(held.begin(), held.end());
  std::sort(target.begin(), target.end());
  NOCMAP_ASSERT(held == target);
#endif
  const Workload& wl = problem_->workload();
  // Collect the affected applications, then recompute each once in
  // ascending order (the order is fixed so the result is too).
  group_apps_.clear();
  for (std::size_t idx = 0; idx < threads.size(); ++idx) {
    place_thread(threads[idx], tiles[idx]);
    group_apps_.push_back(wl.application_of(threads[idx]));
  }
  std::sort(group_apps_.begin(), group_apps_.end());
  group_apps_.erase(std::unique(group_apps_.begin(), group_apps_.end()),
                    group_apps_.end());
  for (const std::size_t app : group_apps_) recompute_app(app);
}

void MappingEvaluator::score_group_candidates(
    std::span<const std::size_t> threads, const TileId* tiles,
    std::size_t count, std::span<double> out) const {
  NOCMAP_REQUIRE(out.size() >= count, "score output span too small");
  const Workload& wl = problem_->workload();
  const std::size_t num_apps = numerator_.size();

  // Affected applications, ascending and deduplicated — the same set
  // apply_group would recompute.
  std::vector<std::size_t> apps;
  apps.reserve(threads.size());
  for (const std::size_t j : threads) apps.push_back(wl.application_of(j));
  std::sort(apps.begin(), apps.end());
  apps.erase(std::unique(apps.begin(), apps.end()), apps.end());

  // The untouched applications contribute the same term to every candidate;
  // max over applications is order-independent, so fold them once.
  double base = 0.0;
  {
    auto it = apps.begin();
    for (std::size_t i = 0; i < num_apps; ++i) {
      if (it != apps.end() && *it == i) {
        ++it;
        continue;
      }
      if (denominator_[i] > 0.0) {
        base = std::max(base, problem_->app_weight(i) * numerator_[i] /
                                  denominator_[i]);
      }
    }
  }

  constexpr std::size_t kLanes = 64;
  double worst[kLanes];
  double acc[kLanes];
  for (std::size_t b0 = 0; b0 < count; b0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - b0);
    for (std::size_t b = 0; b < lanes; ++b) worst[b] = base;
    for (const std::size_t app : apps) {
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
      for (std::size_t j = wl.first_thread(app); j < wl.last_thread(app);
           ++j) {
        // Group membership resolved once per thread, shared by all lanes.
        std::size_t x = threads.size();
        for (std::size_t xi = 0; xi < threads.size(); ++xi) {
          if (threads[xi] == j) {
            x = xi;
            break;
          }
        }
        if (x == threads.size()) {
          const double c = thread_cost(j, mapping_.tile_of(j));
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += c;
        } else {
          const double* row = cache_->row(j);
          const TileId* cand = tiles + x * count + b0;
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += row[cand[b]];
        }
      }
      if (denominator_[app] > 0.0) {
        const double weight = problem_->app_weight(app);
        const double den = denominator_[app];
        for (std::size_t b = 0; b < lanes; ++b) {
          const double apl = weight * acc[b] / den;
          if (apl > worst[b]) worst[b] = apl;
        }
      }
    }
    for (std::size_t b = 0; b < lanes; ++b) out[b0 + b] = worst[b];
  }
}

double MappingEvaluator::recomputed_max_apl() const {
  return evaluate(*problem_, mapping_).max_apl;
}

}  // namespace nocmap
