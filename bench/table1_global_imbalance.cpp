// Table 1 reproduction: imbalance exacerbation by global optimization.
// For C1..C4, compare the average of >= 10^4 random mappings against the
// exact Global (g-APL-minimizing) mapping on g-APL, max-APL and dev-APL.
//
// Paper shape: Global improves g-APL by ~5% over random, but *increases*
// max-APL by ~10% and multiplies dev-APL by 3-4x.
#include <iostream>

#include "bench_common.h"
#include "util/rng.h"

int main() {
  using namespace nocmap;
  bench::print_header(
      "table1_global_imbalance — random average vs Global",
      "paper Table 1 (imbalance exacerbation by global optimization)");

  constexpr std::size_t kRandomTrials = 10000;
  TextTable table({"cfg", "g-APL rand", "g-APL Global", "max-APL rand",
                   "max-APL Global", "dev-APL rand", "dev-APL Global"});

  double sum_g_rand = 0, sum_g_glob = 0, sum_max_rand = 0, sum_max_glob = 0,
         sum_dev_rand = 0, sum_dev_glob = 0;
  const std::vector<std::string> configs{"C1", "C2", "C3", "C4"};
  ParallelTrialRunner runner(ParallelConfig::from_env());

  for (const auto& name : configs) {
    const ObmProblem problem = bench::standard_problem(name);
    const std::size_t n = problem.num_threads();

    // Random-average columns: mean metrics over many uniform mappings,
    // sharded deterministically across the bench's workers.
    constexpr std::size_t kShard = 250;
    const std::size_t shards = kRandomTrials / kShard;
    std::vector<double> g(shards, 0.0), mx(shards, 0.0), dv(shards, 0.0);
    const Rng base(splitmix64(bench::kAlgorithmSeed));
    runner.for_each(shards, [&](std::size_t s) {
      Rng rng = base.fork(s);
      for (std::size_t t = 0; t < kShard; ++t) {
        Mapping m;
        for (std::size_t v : random_permutation(n, rng)) {
          m.thread_to_tile.push_back(static_cast<TileId>(v));
        }
        const LatencyReport r = evaluate(problem, m);
        g[s] += r.g_apl;
        mx[s] += r.max_apl;
        dv[s] += r.dev_apl;
      }
    });
    double g_rand = 0, max_rand = 0, dev_rand = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      g_rand += g[s];
      max_rand += mx[s];
      dev_rand += dv[s];
    }
    g_rand /= kRandomTrials;
    max_rand /= kRandomTrials;
    dev_rand /= kRandomTrials;

    GlobalMapper global;
    const LatencyReport rg = evaluate(problem, global.map(problem));

    table.add_row({name, fmt(g_rand), fmt(rg.g_apl), fmt(max_rand),
                   fmt(rg.max_apl), fmt(dev_rand, 3), fmt(rg.dev_apl, 3)});
    sum_g_rand += g_rand;
    sum_g_glob += rg.g_apl;
    sum_max_rand += max_rand;
    sum_max_glob += rg.max_apl;
    sum_dev_rand += dev_rand;
    sum_dev_glob += rg.dev_apl;
  }

  const double k = static_cast<double>(configs.size());
  table.add_row({"Avg", fmt(sum_g_rand / k), fmt(sum_g_glob / k),
                 fmt(sum_max_rand / k), fmt(sum_max_glob / k),
                 fmt(sum_dev_rand / k, 3), fmt(sum_dev_glob / k, 3)});
  table.print(std::cout);
  bench::save_table(table, "table1_global_imbalance");

  std::cout << "\nShape vs paper (their averages: g-APL 22.61->21.53, "
               "max-APL 22.73->24.97, dev-APL 0.54->1.84):\n"
            << "  g-APL change:   " << fmt_percent(sum_g_glob / sum_g_rand - 1.0)
            << "  (paper: -4.78%)\n"
            << "  max-APL change: "
            << fmt_percent(sum_max_glob / sum_max_rand - 1.0)
            << "  (paper: +9.85%)\n"
            << "  dev-APL ratio:  " << fmt(sum_dev_glob / sum_dev_rand, 2)
            << "x  (paper: ~3.4x)\n";
  return 0;
}
