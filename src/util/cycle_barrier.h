// Persistent worker team: the repo's one worker engine.
//
// A fixed set of threads that all execute the same function once per phase
// and meet at a barrier, with the dispatch cost of two atomic transitions
// instead of a queue round-trip. That is cheap enough for a phase as short
// as one simulator cycle (tens of microseconds, repeated hundreds of
// thousands of times — the partitioned netsim) and for the mappers'
// fan-outs (core/parallel.h), whose workers drain a shared unit counter
// inside one phase.
//
// Every width runs through a team: a one-worker team spawns no thread, and
// its run() is a direct call of f(0) on the caller, so the default
// one-worker mapper, runner and simulator take the code path their
// multi-worker runs take, minus the handshake.
//
// Protocol per run() call (one parallel phase) on a team of two or more:
//
//   1. The caller publishes the phase function and bumps the epoch counter
//      (release). Worker w = 0 is the caller itself, so a team of size N
//      spawns only N-1 threads.
//   2. Each worker observes the new epoch (acquire), runs fn(w), and
//      increments the arrival counter (release).
//   3. The caller runs fn(0), then waits for all arrivals (acquire) before
//      returning — at which point every write made by every worker during
//      the phase happens-before the caller's next read.
//
// Waiting is spin-then-sleep: a bounded spin keeps the latency of back-to-
// back cycles in the tens-of-nanoseconds range on idle cores, and the
// std::atomic wait/notify fallback keeps oversubscribed machines (CI
// runners, 1-core containers) from burning scheduler quanta.
//
// Exceptions thrown by fn are captured (first one wins), the barrier still
// completes — the other workers may be touching shared state, so run()
// never returns early — and the exception is rethrown on the caller.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nocmap {

class CycleWorkerTeam {
 public:
  /// A team of `size` workers (>= 1). Worker 0 is the calling thread;
  /// size - 1 threads are spawned and parked until run() or destruction.
  /// If a thread fails to start, the ones already started are joined and
  /// the std::system_error propagates.
  explicit CycleWorkerTeam(std::size_t size);
  ~CycleWorkerTeam();

  CycleWorkerTeam(const CycleWorkerTeam&) = delete;
  CycleWorkerTeam& operator=(const CycleWorkerTeam&) = delete;

  std::size_t size() const { return size_; }

  /// Runs f(w) for every w in [0, size()) — f(0) on the calling thread —
  /// and returns once all workers have finished. Rethrows the first
  /// exception any worker (caller included) threw during the phase.
  /// Not re-entrant: run() must not be called from inside f.
  template <typename F>
  void run(F&& f) {
    if (size_ == 1) {
      f(std::size_t{0});  // one worker: no handshake, no thread
      return;
    }
    using Fn = std::remove_reference_t<F>;
    run_impl(
        [](void* ctx, std::size_t w) { (*static_cast<Fn*>(ctx))(w); },
        const_cast<Fn*>(std::addressof(f)));
  }

 private:
  void run_impl(void (*fn)(void*, std::size_t), void* ctx);
  void worker_loop(std::size_t index);
  /// Parks every started worker for good and joins it.
  void stop();
  void record_error();

  std::size_t size_ = 1;
  std::vector<std::thread> threads_;

  // Phase handshake (see protocol above). `epoch_` counts started phases
  // (kStopEpoch parks the team for destruction); `arrived_` counts workers
  // finished with the current phase, caller excluded.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> arrived_{0};
  void (*fn_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  static constexpr std::uint64_t kStopEpoch = ~std::uint64_t{0};
};

}  // namespace nocmap
