#include "workload/workload.h"

#include <cmath>

namespace nocmap {

bool ThreadProfile::valid() const {
  return std::isfinite(cache_rate) && std::isfinite(memory_rate) &&
         cache_rate >= 0.0 && memory_rate >= 0.0;
}

double Application::total_rate() const {
  return total_cache_rate() + total_memory_rate();
}

double Application::total_cache_rate() const {
  double s = 0.0;
  for (const auto& t : threads) s += t.cache_rate;
  return s;
}

double Application::total_memory_rate() const {
  double s = 0.0;
  for (const auto& t : threads) s += t.memory_rate;
  return s;
}

Workload::Workload(std::vector<Application> apps) : apps_(std::move(apps)) {
  NOCMAP_REQUIRE(!apps_.empty(), "workload needs at least one application");
  boundaries_.push_back(0);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    NOCMAP_REQUIRE(!apps_[i].threads.empty(),
                   "application must have at least one thread");
    for (const auto& t : apps_[i].threads) {
      NOCMAP_REQUIRE(t.valid(),
                     "request rates must be finite and non-negative");
      flat_.push_back(t);
      owner_.push_back(i);
    }
    boundaries_.push_back(flat_.size());
  }
}

const Application& Workload::application(std::size_t i) const {
  NOCMAP_REQUIRE(i < apps_.size(), "application index out of range");
  return apps_[i];
}

const ThreadProfile& Workload::thread(std::size_t j) const {
  NOCMAP_REQUIRE(j < flat_.size(), "thread index out of range");
  return flat_[j];
}

std::size_t Workload::application_of(std::size_t j) const {
  NOCMAP_REQUIRE(j < owner_.size(), "thread index out of range");
  return owner_[j];
}

std::size_t Workload::first_thread(std::size_t i) const {
  NOCMAP_REQUIRE(i < apps_.size(), "application index out of range");
  return boundaries_[i];
}

std::size_t Workload::last_thread(std::size_t i) const {
  NOCMAP_REQUIRE(i < apps_.size(), "application index out of range");
  return boundaries_[i + 1];
}

Workload Workload::padded_to(std::size_t total_threads) const {
  NOCMAP_REQUIRE(total_threads >= num_threads(),
                 "cannot pad to fewer threads than present");
  if (total_threads == num_threads()) return *this;
  auto apps = apps_;
  Application idle;
  idle.name = "idle";
  idle.threads.assign(total_threads - num_threads(), ThreadProfile{});
  apps.push_back(std::move(idle));
  return Workload(std::move(apps));
}

}  // namespace nocmap
