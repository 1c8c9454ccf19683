// Structured per-run reports: one JSON document per binary execution,
// capturing what the run cost and what the instrumentation saw.
//
// Schema (docs/metrics-schema.md is the field reference):
//
//   {
//     "schema":  "nocmap.run_report/1",
//     "binary":  "<emitting binary>",
//     ... caller-set fields (title, setup, wall_ms, threads, ...) ...,
//     "artifacts": ["bench_results/foo.csv", ...],
//     "counters": { "<name>": <count>, ... },
//     "timers":   { "<name>": {"count": n, "total_ms": x}, ... },
//     "gauges":   { "<name>": <max value>, ... }
//   }
//
// The counters/timers/gauges sections are filled from the metric registry
// snapshot by attach_metrics(); with -DNOCMAP_OBS=OFF they are emitted as
// empty objects (the report itself, and any field the binary sets
// explicitly, always works). Timer totals are emitted in milliseconds with
// the `_ms` key suffix: bench/compare_bench.py gates every numeric field
// whose key ends in `_ns`, `_us` or `_ms`.
//
// The committed perf baselines (`BENCH_*.json`) are filtered reports written
// by save_baseline: schema, binary, a machine fingerprint and the sections a
// bench names, so every measured number is recorded once, as a report field.
//
// Bench binaries share one process-wide report (RunReport::global()),
// initialized by bench_common's print_header and written to
// bench_results/REPORT_<binary>.json at exit.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace nocmap::obs {

inline constexpr const char* kRunReportSchema = "nocmap.run_report/1";

class RunReport {
 public:
  /// Creates a report with the schema marker and the given binary name
  /// (changeable later via set_binary).
  explicit RunReport(const std::string& binary = "");

  void set_binary(const std::string& binary);
  const std::string& binary() const { return binary_; }

  /// The full document (schema/binary fields included).
  JsonValue& root() { return root_; }
  const JsonValue& root() const { return root_; }

  /// Sets a (possibly dotted, e.g. "setup.mesh") field.
  void set(const std::string& dotted_path, JsonValue value);

  /// Records a produced artifact path in the "artifacts" array.
  void note_artifact(const std::string& path);

  /// Writes the current metric-registry snapshot into the counters /
  /// timers / gauges sections (replacing any previous snapshot).
  void attach_metrics();

  /// Serializes to `path`; false when the file cannot be created.
  bool save(const std::string& path) const;

  /// Writes the perf-ledger baseline view of this report to `path`:
  /// `schema`, `binary`, a `fingerprint` of the machine and build
  /// (`hw_threads`, `compiler`, `asserts`) and the named top-level
  /// sections, nothing else (no wall time, artifacts or metric snapshot).
  /// Throws when a section is missing; false when the file cannot be
  /// created.
  bool save_baseline(const std::string& path,
                     const std::vector<std::string>& sections) const;

  /// The process-wide report used by the bench layer.
  static RunReport& global();

 private:
  std::string binary_;
  JsonValue root_;
};

}  // namespace nocmap::obs
