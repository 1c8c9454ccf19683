#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "util/error.h"
#include "util/parse.h"

namespace nocmap {

std::size_t ParallelConfig::resolved_threads() const {
  if (num_threads != 0) return num_threads;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ParallelConfig ParallelConfig::from_env() {
  return {parse_thread_count(std::getenv("NOCMAP_THREADS"))};
}

std::size_t parse_worker_count(std::string_view text, std::string_view what) {
  const auto count = parse_number<std::size_t>(text, what);
  NOCMAP_REQUIRE(count <= kMaxWorkers,
                 std::string(what) + " is " + std::string(text) +
                     ", above the worker bound " +
                     std::to_string(kMaxWorkers));
  return count;
}

std::size_t parse_thread_count(const char* text) {
  if (text == nullptr) return 0;
  try {
    return parse_worker_count(text, "NOCMAP_THREADS");
  } catch (const Error&) {
    return 0;
  }
}

void ParallelTrialRunner::for_each(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  // A throwing unit must not stop its worker from draining the batch, so
  // errors are caught per unit and the first one is rethrown at the end.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<std::size_t> next{0};
  auto drain = [&](std::size_t /*worker*/) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  if (count < 2) {
    drain(0);
  } else {
    team_.run(drain);
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelTrialRunner::for_each_batch(
    std::size_t count, std::size_t batch_size,
    const std::function<void(std::size_t, std::size_t)>& body) {
  NOCMAP_REQUIRE(batch_size > 0, "batch size must be positive");
  if (count == 0) return;
  const std::size_t batches = (count + batch_size - 1) / batch_size;
  for_each(batches, [&](std::size_t i) {
    const std::size_t lo = i * batch_size;
    const std::size_t hi = std::min(lo + batch_size, count);
    body(lo, hi);
  });
}

std::size_t ParallelTrialRunner::argmin(std::span<const double> scores) {
  if (scores.empty()) return npos;
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] < scores[best]) best = i;
  }
  return best;
}

}  // namespace nocmap
