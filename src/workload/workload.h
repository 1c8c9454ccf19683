// Multi-application workload representation (paper Section III.B).
//
// Each thread j of an application carries two request rates: c_j, the shared
// L2-cache request rate (data on-chip), and m_j, the memory-controller
// request rate (data off-chip). Rates are in requests per kilocycle; only
// ratios matter to the mapping algorithms. Applications own contiguous
// thread index ranges [N_{i-1}, N_i) exactly as in the problem statement.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace nocmap {

/// Per-thread communication rates (c_j, m_j).
struct ThreadProfile {
  double cache_rate = 0.0;   ///< shared-L2 request rate c_j
  double memory_rate = 0.0;  ///< memory-controller request rate m_j

  double total_rate() const { return cache_rate + memory_rate; }
  /// Both rates finite and non-negative: the only profiles a Workload
  /// accepts (an infinite rate has no finite mapping cost).
  bool valid() const;
};

/// One application: a named group of threads.
struct Application {
  std::string name;
  std::vector<ThreadProfile> threads;

  std::size_t num_threads() const { return threads.size(); }
  /// Sum of all request rates over the application's threads.
  double total_rate() const;
  double total_cache_rate() const;
  double total_memory_rate() const;
};

/// A set of applications to be co-mapped onto one chip. Thread indices are
/// global: application i owns [boundary(i-1), boundary(i)).
class Workload {
 public:
  explicit Workload(std::vector<Application> apps);

  std::size_t num_applications() const { return apps_.size(); }
  std::size_t num_threads() const { return flat_.size(); }

  const Application& application(std::size_t i) const;
  std::span<const Application> applications() const { return apps_; }

  /// Global thread view: profile of the j-th thread (j in [0, num_threads)).
  const ThreadProfile& thread(std::size_t j) const;
  std::span<const ThreadProfile> threads() const { return flat_; }

  /// Which application owns global thread j.
  std::size_t application_of(std::size_t j) const;

  /// First global thread index of application i (N_{i-1} in the paper).
  std::size_t first_thread(std::size_t i) const;
  /// One-past-last global thread index of application i (N_i).
  std::size_t last_thread(std::size_t i) const;

  /// Returns a copy padded with `count` zero-rate pseudo-threads appended as
  /// a synthetic "idle" application (paper footnote 1: when fewer threads
  /// than tiles, pad and solve the same problem).
  Workload padded_to(std::size_t total_threads) const;

 private:
  std::vector<Application> apps_;
  std::vector<ThreadProfile> flat_;
  std::vector<std::size_t> boundaries_;  // size A+1, boundaries_[0] == 0
  std::vector<std::size_t> owner_;       // per global thread
};

}  // namespace nocmap
