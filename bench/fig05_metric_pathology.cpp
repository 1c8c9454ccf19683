// Figure 5 reproduction: why max-APL is the right objective.
// On the paper's 4x4 / 16-thread example (rates .1/.2/.3/.4 per app,
// td_r=3, td_w=1, td_s=1), the optimal mapping achieves APL = 10.3375 for
// every application, while a mapping that is *perfect* under the standard-
// deviation or min-to-max objectives (dev = 0, ratio = 1) leaves every
// application equally bad at 11.5375 cycles.
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace nocmap;
  bench::print_header("fig05_metric_pathology — objective-metric comparison",
                      "paper Figure 5 + Section III.A");

  const Mesh mesh = Mesh::square(4);
  const LatencyParams params{.td_q = 0.0, .td_s = 1.0};
  std::vector<Application> apps(4);
  for (std::size_t a = 0; a < 4; ++a) {
    apps[a].name = "app" + std::to_string(a + 1);
    apps[a].threads = {{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}, {0.4, 0.0}};
  }
  const ObmProblem problem(TileLatencyModel(mesh, params),
                           Workload(std::move(apps)));

  // (a) optimal mapping (Global is exact here and happens to balance too).
  GlobalMapper global;
  const LatencyReport optimal = evaluate(problem, global.map(problem));

  // (b) "equally bad" mapping: per application one corner/center/2 edges,
  // but with the hottest thread on the corner.
  const std::vector<TileId> corners{mesh.tile_at(0, 0), mesh.tile_at(0, 3),
                                    mesh.tile_at(3, 0), mesh.tile_at(3, 3)};
  const std::vector<TileId> centers{mesh.tile_at(1, 1), mesh.tile_at(1, 2),
                                    mesh.tile_at(2, 1), mesh.tile_at(2, 2)};
  const std::vector<TileId> edges{mesh.tile_at(0, 1), mesh.tile_at(0, 2),
                                  mesh.tile_at(1, 0), mesh.tile_at(1, 3),
                                  mesh.tile_at(2, 0), mesh.tile_at(2, 3),
                                  mesh.tile_at(3, 1), mesh.tile_at(3, 2)};
  Mapping bad;
  bad.thread_to_tile.resize(16);
  for (std::size_t a = 0; a < 4; ++a) {
    bad.thread_to_tile[a * 4 + 0] = centers[a];
    bad.thread_to_tile[a * 4 + 1] = edges[a * 2];
    bad.thread_to_tile[a * 4 + 2] = edges[a * 2 + 1];
    bad.thread_to_tile[a * 4 + 3] = corners[a];
  }
  const LatencyReport equally_bad = evaluate(problem, bad);

  // SSS on the same instance.
  SortSelectSwapMapper sss;
  const LatencyReport sss_report = evaluate(problem, sss.map(problem));

  TextTable t({"mapping", "APL app1..app4 [cycles]", "dev-APL", "min/max",
               "max-APL"});
  auto row = [&](const std::string& name, const LatencyReport& r) {
    std::string apls;
    for (std::size_t a = 0; a < 4; ++a) {
      apls += fmt(r.apl[a], 4) + (a < 3 ? " " : "");
    }
    t.add_row({name, apls, fmt(r.dev_apl, 4), fmt(r.min_to_max, 4),
               fmt(r.max_apl, 4)});
  };
  row("(a) optimal        ", optimal);
  row("(b) equally bad    ", equally_bad);
  row("SSS on this problem", sss_report);
  t.print(std::cout);

  std::cout << "\nPaper anchors: (a) = 10.3375 for all apps; (b) = 11.5375 "
               "for all apps.\nBoth (a) and (b) are *optimal* under dev-APL "
               "(0) and min-to-max (1) —\nonly max-APL distinguishes them, "
               "which is why it is the OBM objective.\n";
  return 0;
}
