// Workload persistence: CSV load/save so real deployments can feed measured
// per-thread request rates into the mapper without touching C++.
//
// Format (header required):
//   application,thread,cache_rate,memory_rate
//   web,0,6.25,0.81
//   web,1,5.90,0.77
//   db,0,12.4,2.05
//
// Applications keep their first-seen order; the `thread` column is a
// per-application index used only for validation (it must count 0,1,2,...
// within each application).
#pragma once

#include <iosfwd>
#include <string>

#include "workload/workload.h"

namespace nocmap {

/// Writes the workload as CSV, every rate with enough digits to read back
/// exactly. Throws nocmap::Error on I/O failure and, before writing
/// anything, on an application name the reader cannot take back: empty,
/// holding a comma or newline, or used twice.
void save_workload_csv(const Workload& workload, const std::string& path);
void write_workload_csv(const Workload& workload, std::ostream& out);

/// Parses a workload from CSV. Throws nocmap::Error on malformed input
/// (bad header, rates that are not one whole number token, non-finite or
/// negative rates, thread-index gaps).
Workload load_workload_csv(const std::string& path);
Workload read_workload_csv(std::istream& in);

}  // namespace nocmap
