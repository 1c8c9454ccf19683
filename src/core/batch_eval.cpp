#include "core/batch_eval.h"

#include <algorithm>

namespace nocmap {

void CandidateBatch::load(std::size_t lane, std::span<const TileId> perm) {
  NOCMAP_REQUIRE(lane < capacity_, "candidate lane out of range");
  NOCMAP_REQUIRE(perm.size() == num_threads_,
                 "candidate arity does not match the batch");
  std::copy(perm.begin(), perm.end(), tiles_.begin() + lane * num_threads_);
}

BatchEvaluator::BatchEvaluator(const ObmProblem& problem,
                               const ThreadCostCache& cache)
    : cache_(&cache), slot_of_(problem.num_threads()) {
  NOCMAP_REQUIRE(cache.num_threads() == problem.num_threads() &&
                     cache.num_tiles() == problem.num_tiles(),
                 "cost cache does not match the problem");
  const Workload& wl = problem.workload();
  apps_.reserve(wl.num_applications());
  for (std::size_t i = 0; i < wl.num_applications(); ++i) {
    App app;
    app.first = static_cast<std::uint32_t>(wl.first_thread(i));
    app.last = static_cast<std::uint32_t>(wl.last_thread(i));
    app.weight = problem.app_weight(i);
    for (std::uint32_t j = app.first; j < app.last; ++j) {
      app.volume += cache.rate(j);
    }
    if (app.volume > 0.0) apps_.push_back(app);
  }
  // Threads of zero-volume applications keep the spare slot.
  std::fill(slot_of_.begin(), slot_of_.end(),
            static_cast<std::uint32_t>(apps_.size()));
  for (std::uint32_t s = 0; s < apps_.size(); ++s) {
    std::fill(slot_of_.begin() + apps_[s].first,
              slot_of_.begin() + apps_[s].last, s);
  }
}

double BatchEvaluator::numerator(std::size_t slot, const TileId* perm) const {
  const App& app = apps_[slot];
  double sum = 0.0;
  for (std::uint32_t j = app.first; j < app.last; ++j) {
    sum += cache_->cost(j, perm[j]);
  }
  return sum;
}

double BatchEvaluator::objective(std::span<const double> num) const {
  NOCMAP_ASSERT(num.size() >= apps_.size());
  double worst = 0.0;
  for (std::size_t s = 0; s < apps_.size(); ++s) {
    const double apl = apps_[s].weight * num[s] / apps_[s].volume;
    if (apl > worst) worst = apl;
  }
  return worst;
}

double BatchEvaluator::max_apl(std::span<const double> num) const {
  NOCMAP_ASSERT(num.size() >= apps_.size());
  double worst = 0.0;
  for (std::size_t s = 0; s < apps_.size(); ++s) {
    const double apl = num[s] / apps_[s].volume;
    if (apl > worst) worst = apl;
  }
  return worst;
}

void BatchEvaluator::score_block(const TileId* rows, std::size_t stride,
                                 std::size_t lanes, double* out) const {
  NOCMAP_ASSERT(lanes <= kMaxLanes);
  double worst[kMaxLanes];
  double acc[kMaxLanes];
  for (std::size_t b = 0; b < lanes; ++b) worst[b] = 0.0;
  for (const App& app : apps_) {
    for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
    for (std::uint32_t j = app.first; j < app.last; ++j) {
      const double* row = cache_->row(j);
      for (std::size_t b = 0; b < lanes; ++b) {
        acc[b] += row[rows[b * stride + j]];
      }
    }
    // objective()'s fold, one lane per accumulator.
    for (std::size_t b = 0; b < lanes; ++b) {
      const double apl = app.weight * acc[b] / app.volume;
      if (apl > worst[b]) worst[b] = apl;
    }
  }
  for (std::size_t b = 0; b < lanes; ++b) out[b] = worst[b];
}

void BatchEvaluator::score(const CandidateBatch& batch, std::size_t count,
                           std::span<double> out) const {
  NOCMAP_REQUIRE(batch.num_threads() == num_threads(),
                 "batch arity does not match the problem");
  NOCMAP_REQUIRE(count <= batch.capacity(), "batch score count out of range");
  score_rows(batch.rows(), batch.num_threads(), count, out);
}

void BatchEvaluator::score_rows(const TileId* rows, std::size_t stride,
                                std::size_t count,
                                std::span<double> out) const {
  NOCMAP_REQUIRE(stride >= num_threads(),
                 "candidate row stride shorter than the thread count");
  NOCMAP_REQUIRE(out.size() >= count, "batch score count out of range");
  for (std::size_t b0 = 0; b0 < count; b0 += kMaxLanes) {
    const std::size_t lanes = std::min(kMaxLanes, count - b0);
    score_block(rows + b0 * stride, stride, lanes, out.data() + b0);
  }
}

}  // namespace nocmap
