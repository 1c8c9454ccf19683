#include "obs/run_report.h"

#include <fstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"

namespace nocmap::obs {

namespace {

bool write_json(const std::string& path, const JsonValue& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump(2) << "\n";
  return static_cast<bool>(out);
}

/// Where a baseline was measured. Standard macros only: the standalone
/// benchmark/ build compiles this file without the root project's
/// definitions.
JsonValue fingerprint() {
  JsonValue f = JsonValue::object();
  f["hw_threads"] = std::uint64_t{std::thread::hardware_concurrency()};
#if defined(__clang__)
  f["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  f["compiler"] = "gcc " __VERSION__;
#else
  f["compiler"] = "unknown";
#endif
#ifdef NDEBUG
  f["asserts"] = false;
#else
  f["asserts"] = true;
#endif
  return f;
}

}  // namespace

RunReport::RunReport(const std::string& binary) {
  root_["schema"] = kRunReportSchema;
  set_binary(binary);
}

void RunReport::set_binary(const std::string& binary) {
  binary_ = binary;
  root_["binary"] = binary;
}

void RunReport::set(const std::string& dotted_path, JsonValue value) {
  root_.at_path(dotted_path) = std::move(value);
}

void RunReport::note_artifact(const std::string& path) {
  root_["artifacts"].push_back(JsonValue(path));
}

void RunReport::attach_metrics() {
  JsonValue counters = JsonValue::object();
  JsonValue timers = JsonValue::object();
  JsonValue gauges = JsonValue::object();
  for (const MetricRow& row : snapshot()) {
    switch (row.kind) {
      case MetricKind::kCounter:
        counters[row.name] = JsonValue(row.count);
        break;
      case MetricKind::kTimer: {
        JsonValue entry = JsonValue::object();
        entry["count"] = JsonValue(row.count);
        entry["total_ms"] =
            JsonValue(static_cast<double>(row.total_ns) / 1e6);
        timers[row.name] = std::move(entry);
        break;
      }
      case MetricKind::kGauge:
        gauges[row.name] = JsonValue(row.value);
        break;
    }
  }
  root_["counters"] = std::move(counters);
  root_["timers"] = std::move(timers);
  root_["gauges"] = std::move(gauges);
}

bool RunReport::save(const std::string& path) const {
  return write_json(path, root_);
}

bool RunReport::save_baseline(const std::string& path,
                              const std::vector<std::string>& sections) const {
  JsonValue doc = JsonValue::object();
  doc["schema"] = kRunReportSchema;
  doc["binary"] = binary_;
  doc["fingerprint"] = fingerprint();
  for (const std::string& name : sections) {
    const JsonValue* section = root_.find(name);
    NOCMAP_REQUIRE(section != nullptr, "run report has no section " + name);
    doc[name] = *section;
  }
  return write_json(path, doc);
}

RunReport& RunReport::global() {
  static RunReport* report = new RunReport();
  return *report;
}

}  // namespace nocmap::obs
