// Shared pieces of the benchmark binary: host-time spans, operation
// accounting, the workload interface and the outside-in layer probes.
//
// Everything here calls the library's public entry points and times them
// from the outside; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "netsim/sim.h"
#include "obs/trace.h"

namespace nocmap::bench {

/// Workload synthesis seed used when --seed is not given.
inline constexpr std::uint64_t kDefaultSeed = 20140519;
/// Seed of the randomized mappers (MC, SA, GA); fixed so that --seed changes
/// only the inputs, never the algorithms.
inline constexpr std::uint64_t kAlgorithmSeed = 7;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs fn() and returns its host time in ns; while tracing is enabled the
/// call also becomes a span named `span` in the chrome trace.
template <typename F>
std::uint64_t timed_ns(const char* span, F&& fn) {
  const std::uint64_t start = now_ns();
  fn();
  const std::uint64_t dur = now_ns() - start;
  obs::trace_emit(span, start, dur);
  return dur;
}

/// Operation accounting: every checked call counts as attempted, and as
/// failed when its check does not hold. The first few failures are kept
/// verbatim for the report.
class Ledger {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Per-layer metrics of a traced run, by name.
using Layers = std::map<std::string, double>;

/// One mapped chip the layer probes measure: a problem of the workload and
/// the mapping the workload runs it with.
struct MappedChip {
  const ObmProblem* problem = nullptr;
  const Mapping* mapping = nullptr;
};

/// One simulation the netsim probes step through.
struct SimScenario {
  MappedChip chip;
  SimConfig config;
};

/// The inputs a workload hands to the layer probes; both lists are
/// non-empty, so every per-layer metric is measured on every workload at
/// that workload's own scale.
struct ProbeInputs {
  std::vector<MappedChip> chips;       ///< core / assign probes
  std::vector<SimScenario> scenarios;  ///< stepped netsim loop; the first
                                       ///< also gets the worker sweep
};

/// One benchmark workload. A run calls setup(), warm_up() once, then pass()
/// until the time budget is spent, calling setup() again between passes
/// (the run reports the fastest of those calls).
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Builds every input from the seed and produces the first result, so
  /// set-up time is the time to a first answer. Must rebuild exactly the
  /// same inputs on every call: the reference outputs stay valid.
  virtual void setup() = 0;
  /// One untimed pass that records the reference outputs later passes are
  /// checked against.
  virtual void warm_up(Ledger& ledger) = 0;
  /// One timed pass: appends one host time per operation to op_ns.
  virtual void pass(Ledger& ledger, std::vector<std::uint64_t>& op_ns) = 0;

  /// Quality of the mappings the workload produces or runs: mean analytic
  /// max-APL (paper eq. 6) in cycles. Deterministic for a seed; simulated
  /// latencies are reported per layer.
  virtual double max_apl() const = 0;
  /// Workload-specific per-layer metrics gathered over the timed passes,
  /// whose operations took op_ns_total in all.
  virtual void add_layers(Layers& layers, double op_ns_total) const = 0;
  virtual ProbeInputs probe_inputs() const = 0;
  /// Folded outputs of the warm-up pass, printed so two commits can be compared
  /// by eye; never compared against a committed value.
  virtual std::uint64_t digest() const = 0;
};

/// The five workloads: map-8x8, map-16x16, sim-8x8, sim-64x64,
/// service-churn. Returns null for an unknown name.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                             std::uint64_t seed);
std::vector<std::string> workload_names();

/// Runs the core / assign / netsim probes over `inputs`, adding their
/// metrics to `layers`; any stepped simulation that disagrees with
/// run_simulation is recorded as a failed operation.
void run_layer_probes(const ProbeInputs& inputs, std::uint64_t seed,
                      std::size_t nproc, Ledger& ledger, Layers& layers);

}  // namespace nocmap::bench
