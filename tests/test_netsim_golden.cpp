// Golden-equivalence gate for the netsim engine: every scenario below must
// reproduce, bit for bit, the per-app APLs and exact packet/flit counts the
// original per-router/per-flit heap engine produced (captured before the
// structure-of-arrays rewrite; see DESIGN.md §12). The scenarios span
// routing algorithms, arbitration policies, burstiness, a single VC per
// port, congestion, a zero-warmup run, a paper-scale 8×8 SSS mapping, a
// stacked mesh and a 16×16 chip, so any change to tick ordering,
// arbitration RNG draws, or accumulation order shows up as a hexfloat
// mismatch. The "vc1" row was captured before the router and link delays
// became the Table-2 constants. The paper-scale scenarios simulate a fixed
// SSS mapping (kC1SssMapping), so a change in how SSS breaks ties cannot
// move them.
//
// If an *intentional* behaviour change lands, re-capture the table with the
// probe documented in DESIGN.md §12 and justify the diff in the PR.
#include "netsim/sim.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <vector>

#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem small_problem() {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(2);
  apps[0].name = "light";
  apps[0].threads.assign(8, ThreadProfile{2.0, 0.3});
  apps[1].name = "heavy";
  apps[1].threads.assign(8, ThreadProfile{8.0, 1.0});
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    Workload(std::move(apps)));
}

// SortSelectSwapMapper's mapping of C1 (workload seed 20140519) on the 8×8
// chip, thread by thread, as SSS produced it when the paper-scale goldens
// below were captured.
constexpr TileId kC1SssMapping[] = {
    25, 35, 43, 26, 58, 17, 8,  50, 51, 59, 16, 42, 31, 57, 9,  56,
    6,  4,  60, 44, 54, 28, 36, 38, 52, 46, 12, 55, 7,  37, 49, 47,
    45, 10, 23, 18, 19, 32, 22, 14, 63, 39, 62, 53, 61, 30, 29, 15,
    13, 2,  3,  5,  34, 40, 21, 41, 48, 20, 11, 1,  33, 24, 27, 0};

ObmProblem c1_paper_problem() {
  return ObmProblem(TileLatencyModel(Mesh::square(8), LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 20140519));
}

Mapping c1_sss_mapping() {
  return Mapping{{std::begin(kC1SssMapping), std::end(kC1SssMapping)}};
}

struct GoldenCase {
  const char* tag;
  std::vector<double> apl;  // per-app, hexfloat-exact
  double max_apl;
  double dev_apl;
  double g_apl;
  std::uint64_t packets_measured;
  std::uint64_t local_accesses;
  std::uint64_t flits_injected;
  std::uint64_t flits_ejected;
};

// Captured from the seed engine (hexfloats are bit-exact doubles).
const std::vector<GoldenCase>& golden_table() {
  static const std::vector<GoldenCase> table = {
      {"default-4x4",
       {0x1.ea5f5682a5f5bp+3, 0x1.dfc65485b8cfdp+3},
       0x1.ea5f5682a5f5bp+3, 0x1.53203f9da4bcp-3, 0x1.e1ede8bd85f53p+3,
       3566, 316, 10302, 10302},
      {"congested-8x",
       {0x1.09a210bd6e321p+4, 0x1.1aa739b6eef32p+4},
       0x1.1aa739b6eef32p+4, 0x1.10528f980c11p-1, 0x1.172db5f77ba19p+4,
       28915, 2456, 83676, 83676},
      {"bursty-3x",
       {0x1.ed8fe44308aacp+3, 0x1.09bbee8274ef7p+4},
       0x1.09bbee8274ef7p+4, 0x1.2f3fc60f09a1p-1, 0x1.053a07c3ce1d1p+4,
       7451, 624, 21828, 21828},
      {"o1turn-vc4",
       {0x1.d9e4791e47926p+3, 0x1.f13d743c668a4p+3},
       0x1.f13d743c668a4p+3, 0x1.758fb1e1ef7ep-2, 0x1.ec7e761158b15p+3,
       3660, 282, 11166, 11166},
      {"yx",
       {0x1.eb6f46508dfebp+3, 0x1.e3345f38c44d7p+3},
       0x1.eb6f46508dfebp+3, 0x1.075ce2f93628p-3, 0x1.e4f1fe8e5dd9fp+3,
       1773, 142, 5442, 5442},
      {"distance-weighted-4x",
       {0x1.e9e2fe5046282p+3, 0x1.050bf7440a20fp+4},
       0x1.050bf7440a20fp+4, 0x1.01a781be70cep-1, 0x1.01bc02c66ad79p+4,
       7380, 570, 22578, 22578},
      {"vc1",
       {0x1.ee2a53490b9acp+3, 0x1.e2328a7011944p+3},
       0x1.ee2a53490b9acp+3, 0x1.7ef91b1f40dp-3, 0x1.e4ba8ca24acbp+3,
       1773, 142, 5442, 5442},
      {"no-warmup",
       {0x1.fe86f65c1dfe6p+3, 0x1.de01ce103e91bp+3},
       0x1.fe86f65c1dfe6p+3, 0x1.0429425efb658p-1, 0x1.e5233ab73151cp+3,
       1090, 80, 3036, 3036},
      {"c1-sss-8x8",
       {0x1.987ea9d81bf6cp+4, 0x1.96755d60ffd9ep+4, 0x1.987228b448af5p+4,
        0x1.9cad162ee6d15p+4},
       0x1.9cad162ee6d15p+4, 0x1.22036d64defbep-3, 0x1.99fbf2b28408p+4,
       20091, 410, 65244, 65244},
  };
  return table;
}

SimConfig config_for(const char* tag) {
  SimConfig c;
  c.warmup_cycles = 1000;
  c.measure_cycles = 20000;
  const std::string t = tag;
  if (t == "congested-8x") {
    c.traffic.injection_scale = 8.0;
  } else if (t == "bursty-3x") {
    c.measure_cycles = 15000;
    c.traffic.injection_scale = 3.0;
    c.traffic.bursty = true;
    c.traffic.burst_duty = 0.25;
  } else if (t == "o1turn-vc4") {
    c.measure_cycles = 10000;
    c.network.routing = RoutingAlgo::kO1Turn;
    c.network.vcs_per_port = 4;
    c.traffic.injection_scale = 2.0;
  } else if (t == "yx") {
    c.measure_cycles = 10000;
    c.network.routing = RoutingAlgo::kYX;
  } else if (t == "distance-weighted-4x") {
    c.measure_cycles = 10000;
    c.network.arbitration = Arbitration::kDistanceWeighted;
    c.traffic.injection_scale = 4.0;
  } else if (t == "vc1") {
    c.measure_cycles = 10000;
    c.network.vcs_per_port = 1;
  } else if (t == "no-warmup") {
    c.warmup_cycles = 0;
    c.measure_cycles = 6000;
  } else if (t == "c1-sss-8x8") {
    c.warmup_cycles = 2000;
    c.measure_cycles = 20000;
  }
  return c;
}

void expect_matches(const SimResult& r, const GoldenCase& g) {
  ASSERT_EQ(r.apl.size(), g.apl.size());
  for (std::size_t a = 0; a < g.apl.size(); ++a) {
    EXPECT_EQ(r.apl[a], g.apl[a]) << "app " << a;
  }
  EXPECT_EQ(r.max_apl, g.max_apl);
  EXPECT_EQ(r.dev_apl, g.dev_apl);
  EXPECT_EQ(r.g_apl, g.g_apl);
  EXPECT_EQ(r.packets_measured, g.packets_measured);
  EXPECT_EQ(r.local_accesses, g.local_accesses);
  EXPECT_EQ(r.flits_injected, g.flits_injected);
  EXPECT_EQ(r.flits_ejected, g.flits_ejected);
}

// Every pinned scenario must hit the golden numbers at every partition
// width: 1 (serial engine), 2, and 8 row-band domains. The partitioned
// step's determinism argument (DESIGN.md §16) is exactly the claim under
// test — domain decomposition, halo exchange, and the commit barrier must
// be invisible in the results, down to the last bit of every hexfloat.
const std::size_t kGoldenWorkerCounts[] = {1, 2, 8};

TEST(NetsimGolden, SmallProblemScenariosAreBitIdenticalToSeedEngine) {
  const ObmProblem p = small_problem();
  const Mapping id16 = p.identity_mapping();
  for (const GoldenCase& g : golden_table()) {
    if (std::string(g.tag) == "c1-sss-8x8") continue;
    for (const std::size_t workers : kGoldenWorkerCounts) {
      SCOPED_TRACE(std::string(g.tag) + " workers=" +
                   std::to_string(workers));
      SimConfig c = config_for(g.tag);
      c.sim_workers = workers;
      expect_matches(run_simulation(p, id16, c), g);
    }
  }
}

TEST(NetsimGolden, PaperScaleSssMappingIsBitIdenticalToSeedEngine) {
  const ObmProblem p = c1_paper_problem();
  const Mapping m = c1_sss_mapping();
  const GoldenCase& g = golden_table().back();
  ASSERT_STREQ(g.tag, "c1-sss-8x8");
  for (const std::size_t workers : kGoldenWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SimConfig c = config_for(g.tag);
    c.sim_workers = workers;
    expect_matches(run_simulation(p, m, c), g);
  }
}

// The activity record behind Fig. 11's dynamic power and the sweep log's
// link_utilization / max_crossbar_per_cycle: the window counters, the
// counters through the drain, and the window's load digest, captured before
// the network handed out one activity record instead of six accessors.
void expect_counters(const ActivityCounters& a,
                     const std::array<std::uint64_t, 7>& want) {
  EXPECT_EQ(a.buffer_writes, want[0]);
  EXPECT_EQ(a.buffer_reads, want[1]);
  EXPECT_EQ(a.crossbar_traversals, want[2]);
  EXPECT_EQ(a.link_traversals, want[3]);
  EXPECT_EQ(a.sw_arbitrations, want[4]);
  EXPECT_EQ(a.vc_allocations, want[5]);
  EXPECT_EQ(a.queue_wait_cycles, want[6]);
}

TEST(NetsimGolden, PaperScaleSssActivityAndLoadArePinned) {
  const ObmProblem p = c1_paper_problem();
  const Mapping m = c1_sss_mapping();
  for (const std::size_t workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SimConfig c = config_for("c1-sss-8x8");
    c.sim_workers = workers;
    const SimResult r = run_simulation(p, m, c);
    expect_counters(r.activity,
                    {347297, 347307, 347307, 288245, 347307, 115749, 26158});
    expect_counters(r.activity_with_drain,
                    {348139, 348199, 348199, 288966, 348199, 115937, 26322});
    EXPECT_EQ(r.load.max_crossbar_per_cycle, 0x1.f0d844d013a93p-2);
    EXPECT_EQ(r.load.mean_crossbar_per_cycle, 0x1.15d8793dd97f6p-2);
    EXPECT_EQ(r.load.max_avg_queue_wait, 0x1.3dcc3552245ep-3);
    EXPECT_EQ(r.load.max_queue_occupancy, 0x1.305532617c1bep-4);
    EXPECT_EQ(r.load.link_utilization, 0x1.0789cd17b2c2ep-4);
  }
}

// Two scenarios captured before the router engine's cache-compact layout
// (5-port planar slot stride, one packed record per VC, 24-byte flits, the
// coordinate table): a 2x4x4 stack under distance-weighted arbitration,
// whose routers lay out all seven ports and whose arbiter draws weigh each
// flit's hop count, and a 16x16 chip, whose 256 routers make the
// active-router scan cross bitmask words (the 8x8 chip fills exactly one).
struct ScaleCase {
  GoldenCase golden;
  std::array<std::uint64_t, 7> activity;
};

SimResult run_scale_case(const char* tag, std::size_t workers) {
  const std::string t = tag;
  const Mesh mesh = t == "stacked-2x4x4-dw"
                        ? Mesh::stacked_with_placement(2, 4,
                                                       McPlacement::kCorners)
                        : Mesh::square(16);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  const ObmProblem p(
      TileLatencyModel(mesh, LatencyParams{}),
      synthesize_workload(parsec_config(t == "16x16" ? "C1" : "C2"),
                          20140519, opt));
  SimConfig c;
  c.sim_workers = workers;
  if (t == "16x16") {
    c.warmup_cycles = 500;
    c.measure_cycles = 4000;
  } else {
    c.warmup_cycles = 1000;
    c.measure_cycles = 10000;
    c.network.arbitration = Arbitration::kDistanceWeighted;
    c.traffic.injection_scale = 4.0;
  }
  return run_simulation(p, p.identity_mapping(), c);
}

TEST(NetsimGolden, StackedAndMultiWordChipsAreBitIdentical) {
  const std::vector<ScaleCase> table = {
      {{"stacked-2x4x4-dw",
        {0x1.10d825d36b661p+4, 0x1.094b31d922a45p+4, 0x1.1b5259fb439dcp+4,
         0x1.19da51896b9d3p+4},
        0x1.1b5259fb439dcp+4, 0x1.d249366e4544p-2, 0x1.1715bee62b213p+4,
        5639, 168, 17970, 17970},
       {64096, 64096, 64096, 47675, 64096, 21348, 3413}},
      {{"16x16",
        {0x1.a78d3188906eap+5, 0x1.6a0cb4a0057e8p+5, 0x1.6b836fdb56dcp+5,
         0x1.98f42b66d5834p+5},
        0x1.a78d3188906eap+5, 0x1.b3becb9d1e043p+1, 0x1.83aeac21828cbp+5,
        16318, 106, 54528, 54528},
       {548768, 548728, 548728, 500159, 548728, 182964, 59310}},
  };
  for (const ScaleCase& sc : table) {
    for (const std::size_t workers : kGoldenWorkerCounts) {
      SCOPED_TRACE(std::string(sc.golden.tag) + " workers=" +
                   std::to_string(workers));
      const SimResult r = run_scale_case(sc.golden.tag, workers);
      expect_matches(r, sc.golden);
      expect_counters(r.activity, sc.activity);
    }
  }
}

// Per-application {p50, p95, p99} latency percentiles, captured from the
// fixed 400-bin histogram the range-free one replaced. Every pinned value
// lies below 128 cycles, where the new buckets are the old unit bins, so
// they must still match bit for bit.
using PercentilePins = std::vector<std::array<double, 3>>;

void expect_percentiles(const SimResult& r, const PercentilePins& pins) {
  ASSERT_EQ(r.per_app_histogram.size(), pins.size());
  for (std::size_t a = 0; a < pins.size(); ++a) {
    EXPECT_EQ(r.app_percentile(a, 0.50), pins[a][0]) << "app " << a;
    EXPECT_EQ(r.app_percentile(a, 0.95), pins[a][1]) << "app " << a;
    EXPECT_EQ(r.app_percentile(a, 0.99), pins[a][2]) << "app " << a;
  }
}

TEST(NetsimGolden, TailPercentilesMatchFixedBinHistogram) {
  const ObmProblem small = small_problem();
  {
    SCOPED_TRACE("bursty-3x");
    expect_percentiles(
        run_simulation(small, small.identity_mapping(),
                       config_for("bursty-3x")),
        {{0x1.0625aae630d41p+4, 0x1.c7d0bd0bd0bdp+4, 0x1.120c49ba5e353p+5},
         {0x1.0b25e22708093p+4, 0x1.e5aeeeeeeeefp+4, 0x1.258fe6216a2c3p+5}});
  }
  SCOPED_TRACE("c1-sss-8x8");
  expect_percentiles(
      run_simulation(c1_paper_problem(), c1_sss_mapping(),
                     config_for("c1-sss-8x8")),
      {{0x1.8ce871146acc3p+4, 0x1.6108d3dcb08d4p+5, 0x1.923333333333p+5},
       {0x1.8bf843101ef3cp+4, 0x1.661e4129e4129p+5, 0x1.a61e3b7d516ebp+5},
       {0x1.8b7fa4b96766p+4, 0x1.67832e5a481aap+5, 0x1.b0570a3d70a4p+5},
       {0x1.8d291aae833ecp+4, 0x1.68f0bad5c84eep+5, 0x1.ae4f3faa84ac8p+5}});
}

}  // namespace
}  // namespace nocmap
