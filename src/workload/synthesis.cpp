#include "workload/synthesis.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace nocmap {

std::array<ConfigSpec, 8> parsec_table3_configs() {
  // Paper Table 3: average values and standard deviations of the cache and
  // memory communication rates of the eight configurations.
  return {{
      {"C1", {7.008, 88.3}, {0.899, 9.84}},
      {"C2", {1.8855, 17.52}, {0.381, 2.21}},
      {"C3", {10.881, 112.34}, {1.51, 18.42}},
      {"C4", {11.063, 107.27}, {1.548, 17.56}},
      {"C5", {9.04, 129.27}, {1.371, 19.91}},
      {"C6", {9.222, 125.81}, {1.409, 19.21}},
      {"C7", {1.992, 14.69}, {0.399, 2.01}},
      {"C8", {8.881, 131.87}, {1.334, 20.45}},
  }};
}

ConfigSpec parsec_config(const std::string& name) {
  for (const auto& spec : parsec_table3_configs()) {
    if (spec.name == name) return spec;
  }
  throw Error("unknown PARSEC configuration: " + name);
}

namespace {

// The Table-3 calibration (see the header comment): the within-application
// cv of thread cache rates is the configuration's cv scaled and clamped,
// and the lognormal sigma of the per-thread cache:memory ratio jitter.
constexpr double kWithinAppCvScale = 0.03;
constexpr double kMinWithinAppCv = 0.2;
constexpr double kMaxWithinAppCv = 0.7;
constexpr double kRatioJitterSigma = 0.35;

/// Deterministic lognormal quantile sample of size n whose population
/// coefficient of variation equals `cv` (mu = 0; caller rescales the mean).
std::vector<double> lognormal_quantiles(std::size_t n, double cv) {
  // For a lognormal, cv^2 = exp(sigma^2) - 1.
  const double sigma = std::sqrt(std::log(1.0 + cv * cv));
  std::vector<double> xs(n);
  for (std::size_t q = 0; q < n; ++q) {
    const double p =
        (static_cast<double>(q) + 0.5) / static_cast<double>(n);
    xs[q] = std::exp(sigma * inverse_normal_cdf(p));
  }
  return xs;
}

/// Rescales xs so its mean equals target_mean exactly.
void rescale_mean(std::vector<double>& xs, double target_mean) {
  const double m = mean(xs);
  if (m <= 0.0) return;
  const double k = target_mean / m;
  for (double& x : xs) x *= k;
}

}  // namespace

Workload synthesize_workload(const ConfigSpec& spec, std::uint64_t seed,
                             const SynthesisOptions& options) {
  NOCMAP_REQUIRE(options.num_applications >= 1, "need >= 1 application");
  NOCMAP_REQUIRE(options.threads_per_app >= 1, "need >= 1 thread per app");
  NOCMAP_REQUIRE(!options.app_load_multipliers.empty(),
                 "need at least one load multiplier");
  NOCMAP_REQUIRE(spec.cache.mean > 0.0 && spec.memory.mean > 0.0,
                 "config means must be positive");

  const std::size_t num_apps = options.num_applications;
  const std::size_t per_app = options.threads_per_app;
  const std::size_t n = num_apps * per_app;
  Rng rng(splitmix64(seed) ^ 0x6f4c6d9e2a81d3b5ULL);

  // Within-application spread: Table-3 cv scaled down to a per-thread cv
  // (the published value is temporal; see header), preserving the
  // configurations' variance ordering.
  const double table_cv = spec.cache.stddev / spec.cache.mean;
  const double within_cv = std::clamp(kWithinAppCvScale * table_cv,
                                      kMinWithinAppCv, kMaxWithinAppCv);

  // 1. Per application: deterministic quantile sample, shuffled so thread
  //    index does not encode rate, scaled by the application multiplier
  //    with a small random load jitter.
  std::vector<std::vector<double>> app_rates(num_apps);
  for (std::size_t a = 0; a < num_apps; ++a) {
    app_rates[a] = lognormal_quantiles(per_app, within_cv);
    rng.shuffle(app_rates[a]);
    const double mult =
        options.app_load_multipliers[a % options.app_load_multipliers.size()];
    const double jitter = rng.lognormal(0.0, 0.05);
    for (double& r : app_rates[a]) r *= mult * jitter;
  }

  // 2. Exact cache-rate mean across the whole configuration.
  std::vector<double> all_cache;
  all_cache.reserve(n);
  for (const auto& rates : app_rates) {
    all_cache.insert(all_cache.end(), rates.begin(), rates.end());
  }
  rescale_mean(all_cache, spec.cache.mean);

  // 3. Jittered per-thread cache:memory ratios, exact memory-rate mean.
  const double base_ratio = spec.cache.mean / spec.memory.mean;
  std::vector<double> all_memory(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ratio =
        base_ratio * rng.lognormal(0.0, kRatioJitterSigma);
    all_memory[j] = all_cache[j] / ratio;
  }
  rescale_mean(all_memory, spec.memory.mean);

  // 4. Assemble applications and sort ascending by total rate so that
  //    "Application 1" is the lightest, matching the paper's figures.
  std::vector<Application> apps(num_apps);
  for (std::size_t a = 0, j = 0; a < num_apps; ++a) {
    apps[a].threads.resize(per_app);
    for (std::size_t t = 0; t < per_app; ++t, ++j) {
      apps[a].threads[t] = {all_cache[j], all_memory[j]};
    }
  }
  std::stable_sort(apps.begin(), apps.end(),
                   [](const Application& x, const Application& y) {
                     return x.total_rate() < y.total_rate();
                   });
  for (std::size_t a = 0; a < num_apps; ++a) {
    apps[a].name = spec.name + ".app" + std::to_string(a + 1);
  }
  return Workload(std::move(apps));
}

WorkloadMoments measure_moments(const Workload& workload) {
  std::vector<double> cache;
  std::vector<double> memory;
  cache.reserve(workload.num_threads());
  memory.reserve(workload.num_threads());
  for (const auto& t : workload.threads()) {
    cache.push_back(t.cache_rate);
    memory.push_back(t.memory_rate);
  }
  return {{mean(cache), stddev_population(cache)},
          {mean(memory), stddev_population(memory)}};
}

}  // namespace nocmap
