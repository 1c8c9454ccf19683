// Shared scaffolding for the reproduction bench binaries: canonical problem
// construction (8x8 mesh, default latency parameters, fixed workload seeds)
// and small printing helpers, so every table/figure is generated from the
// same experimental setup.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/parallel.h"
#include "core/random_mapper.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "util/table.h"
#include "workload/synthesis.h"

namespace nocmap::bench {

/// Workload synthesis seed shared by all benches so every figure/table is
/// computed on the same eight configurations.
inline constexpr std::uint64_t kWorkloadSeed = 20140519;  // IPDPS'14 week

/// Algorithm seeds (MC / SA) for the headline tables.
inline constexpr std::uint64_t kAlgorithmSeed = 7;

/// Paper evaluation defaults: MC trial count and SA iteration budget chosen
/// so SA gets runtime comparable to the paper's setup (both are search
/// baselines given more time than SSS).
inline constexpr std::size_t kMcTrials = 10000;
inline constexpr std::size_t kSaIterations = 50000;

/// The canonical 8x8 problem for one Table-3 configuration.
ObmProblem standard_problem(const ConfigSpec& spec);
ObmProblem standard_problem(const std::string& config_name);

/// Freshly constructed mappers with the bench seeds, in paper order
/// {Global, MC, SA, SSS}, each on its default single worker.
std::vector<std::unique_ptr<Mapper>> paper_mappers();

/// Records one serial-vs-parallel wall-clock pair as the bench RunReport
/// fields `<key>.serial_ms`, `<key>.parallel_ms` and `<key>.speedup`, and
/// returns the speedup (0 when the parallel time is 0).
double record_speedup(const std::string& key, double serial_ms,
                      double parallel_ms);

/// Writes the perf baseline `path` (a BENCH_*.json) as the named sections
/// of the bench RunReport (RunReport::save_baseline) and announces it;
/// throws when the file cannot be written.
void save_baseline(const std::string& path,
                   const std::vector<std::string>& sections);

/// Prints the standard bench header (binary purpose + setup line).
void print_header(const std::string& title, const std::string& paper_ref);

/// Prints an application-ID grid (1-based, paper Figure 4/8 style).
void print_mapping_grid(const ObmProblem& problem, const Mapping& mapping,
                        std::ostream& os = std::cout);

/// Persists a result table as bench_results/<name>.csv (directory created
/// on demand) and announces the path, so figures can be re-plotted without
/// scraping stdout.
void save_table(const TextTable& table, const std::string& name);

}  // namespace nocmap::bench
