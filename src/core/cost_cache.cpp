#include "core/cost_cache.h"

#include <atomic>

#include "util/error.h"

namespace nocmap {

static_assert(sizeof(TileId) == sizeof(std::uint32_t),
              "CostView column gather assumes 32-bit tile ids");

namespace check_hooks {

namespace {
std::atomic<bool> g_cost_off_by_one{false};
}  // namespace

void set_cost_cache_off_by_one(bool enabled) {
  g_cost_off_by_one.store(enabled, std::memory_order_relaxed);
}

bool cost_cache_off_by_one() {
  return g_cost_off_by_one.load(std::memory_order_relaxed);
}

}  // namespace check_hooks

ThreadCostCache::ThreadCostCache(const Workload& workload,
                                 const TileLatencyModel& model)
    : num_threads_(workload.num_threads()),
      num_tiles_(model.mesh().num_tiles()),
      row_stride_((model.mesh().num_tiles() + kRowBlock - 1) / kRowBlock *
                  kRowBlock) {
  costs_.assign(num_threads_ * row_stride_, 0.0);
  rates_.resize(num_threads_);
  rate_prefix_.resize(num_threads_ + 1);
  rate_prefix_[0] = 0.0;
  for (std::size_t j = 0; j < num_threads_; ++j) {
    const ThreadProfile& t = workload.thread(j);
    rates_[j] = t.total_rate();
    rate_prefix_[j + 1] = rate_prefix_[j] + rates_[j];
    double* row = &costs_[j * row_stride_];
    for (std::size_t k = 0; k < num_tiles_; ++k) {
      const auto tile = static_cast<TileId>(k);
      row[k] = t.cache_rate * model.tc(tile) + t.memory_rate * model.tm(tile);
    }
  }
  if (check_hooks::cost_cache_off_by_one() && num_threads_ > 0 &&
      num_tiles_ > 1) {
    for (std::size_t k = 0; k + 1 < num_tiles_; ++k) {
      costs_[k] = costs_[k + 1];
    }
  }
}

CostView ThreadCostCache::sam_view(std::size_t first_thread,
                                   std::span<const TileId> tiles) const {
  const std::size_t n = tiles.size();
  NOCMAP_REQUIRE(first_thread + n <= num_threads_,
                 "SAM thread range out of cache bounds");
  return CostView(row(first_thread), n, n, row_stride_, tiles.data());
}

}  // namespace nocmap
