#include "core/metrics.h"

#include <algorithm>

#include "util/stats.h"

namespace nocmap {

LatencyReport evaluate(const ObmProblem& problem, const Mapping& mapping) {
  NOCMAP_REQUIRE(mapping.is_valid_permutation(problem.num_threads()),
                 "mapping must be a valid permutation");
  const Workload& wl = problem.workload();
  const TileLatencyModel& model = problem.model();

  LatencyReport report;
  report.apl.resize(wl.num_applications(), 0.0);

  std::vector<double> active_apls;
  double total_weighted = 0.0;
  double total_volume = 0.0;

  for (std::size_t i = 0; i < wl.num_applications(); ++i) {
    double weighted = 0.0;
    double volume = 0.0;
    for (std::size_t j = wl.first_thread(i); j < wl.last_thread(i); ++j) {
      const ThreadProfile& t = wl.thread(j);
      const TileId k = mapping.tile_of(j);
      weighted += t.cache_rate * model.tc(k) + t.memory_rate * model.tm(k);
      volume += t.total_rate();
    }
    total_weighted += weighted;
    total_volume += volume;
    if (volume > 0.0) {
      report.apl[i] = weighted / volume;
      active_apls.push_back(report.apl[i]);
      report.objective =
          std::max(report.objective, problem.app_weight(i) * report.apl[i]);
    }
  }

  if (!active_apls.empty()) {
    report.max_apl = max_value(active_apls);
    report.dev_apl = stddev_population(active_apls);
    report.min_to_max = min_to_max_ratio(active_apls);
  }
  report.g_apl = total_volume > 0.0 ? total_weighted / total_volume : 0.0;
  return report;
}

}  // namespace nocmap
