#include "util/cycle_barrier.h"

#include <utility>

#include "util/error.h"

namespace nocmap {

namespace {

/// Bounded spin before falling back to a futex-style sleep. Large enough
/// that a worker whose peers are mid-cycle (tens of microseconds of router
/// work) usually never sleeps; small enough that an oversubscribed core
/// yields within a scheduler quantum.
constexpr int kSpinIterations = 4096;

}  // namespace

CycleWorkerTeam::CycleWorkerTeam(std::size_t size) : size_(size) {
  NOCMAP_REQUIRE(size >= 1, "worker team needs at least one worker");
  threads_.reserve(size - 1);
  try {
    for (std::size_t w = 1; w < size; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    // A thread failed to start (std::system_error). No destructor runs for
    // a half-built team, and destroying a joinable std::thread terminates
    // the process, so park and join the workers that did start first.
    stop();
    throw;
  }
}

CycleWorkerTeam::~CycleWorkerTeam() { stop(); }

void CycleWorkerTeam::stop() {
  epoch_.store(kStopEpoch, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void CycleWorkerTeam::record_error() {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void CycleWorkerTeam::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next phase: spin briefly, then sleep on the epoch word.
    std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    for (int spin = 0; epoch == seen && spin < kSpinIterations; ++spin) {
      if ((spin & 63) == 63) std::this_thread::yield();
      epoch = epoch_.load(std::memory_order_acquire);
    }
    while (epoch == seen) {
      epoch_.wait(seen, std::memory_order_acquire);
      epoch = epoch_.load(std::memory_order_acquire);
    }
    if (epoch == kStopEpoch) return;
    seen = epoch;

    try {
      fn_(ctx_, index);
    } catch (...) {
      record_error();
    }
    arrived_.fetch_add(1, std::memory_order_release);
    arrived_.notify_one();
  }
}

void CycleWorkerTeam::run_impl(void (*fn)(void*, std::size_t), void* ctx) {
  fn_ = fn;
  ctx_ = ctx;
  arrived_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  try {
    fn(ctx, 0);
  } catch (...) {
    record_error();
  }

  // Barrier: every spawned worker must arrive before the caller proceeds —
  // even after an exception, since workers may still be writing shared
  // state.
  const std::size_t expect = size_ - 1;
  std::size_t arrived = arrived_.load(std::memory_order_acquire);
  for (int spin = 0; arrived < expect && spin < kSpinIterations; ++spin) {
    if ((spin & 63) == 63) std::this_thread::yield();
    arrived = arrived_.load(std::memory_order_acquire);
  }
  while (arrived < expect) {
    arrived_.wait(arrived, std::memory_order_acquire);
    arrived = arrived_.load(std::memory_order_acquire);
  }

  if (first_error_) {
    std::exception_ptr err;
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      err = std::exchange(first_error_, nullptr);
    }
    std::rethrow_exception(err);
  }
}

}  // namespace nocmap
