#include "power/dsent_lite.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace nocmap {
namespace {

ActivityCounters sample_activity() {
  ActivityCounters a;
  a.buffer_writes = 1000;
  a.buffer_reads = 1000;
  a.crossbar_traversals = 1000;
  a.link_traversals = 800;
  a.sw_arbitrations = 1000;
  a.vc_allocations = 300;
  return a;
}

TEST(DsentLite, EnergyIsLinearInActivity) {
  const DsentLitePowerModel model;
  const ActivityCounters a = sample_activity();
  ActivityCounters doubled = a;
  doubled += a;
  EXPECT_NEAR(model.dynamic_energy_pj(doubled),
              2.0 * model.dynamic_energy_pj(a), 1e-9);
}

TEST(DsentLite, HandComputedEnergy) {
  PowerParams p;
  p.buffer_write_pj = 1.0;
  p.buffer_read_pj = 1.0;
  p.crossbar_pj = 2.0;
  p.sw_arbiter_pj = 0.5;
  p.vc_arbiter_pj = 0.5;
  p.link_pj = 3.0;
  const DsentLitePowerModel model(p);
  ActivityCounters a;
  a.buffer_writes = 10;
  a.buffer_reads = 10;
  a.crossbar_traversals = 10;
  a.link_traversals = 10;
  a.sw_arbitrations = 10;
  a.vc_allocations = 10;
  // 10*(1+1+2+0.5+0.5+3) = 80 pJ
  EXPECT_NEAR(model.dynamic_energy_pj(a), 80.0, 1e-12);
}

TEST(DsentLite, ReportUnitsAreMilliwatts) {
  // 1000 pJ over 2000 cycles at 2 GHz: 1000 pJ / 1 us = 1 mW.
  PowerParams p;
  p.buffer_write_pj = 1.0;
  p.buffer_read_pj = 0.0;
  p.crossbar_pj = 0.0;
  p.sw_arbiter_pj = 0.0;
  p.vc_arbiter_pj = 0.0;
  p.link_pj = 0.0;
  p.clock_ghz = 2.0;
  const DsentLitePowerModel model(p);
  ActivityCounters a;
  a.buffer_writes = 1000;
  const PowerReport r = model.report(a, 2000, 0, 0);
  EXPECT_NEAR(r.buffer_mw, 1.0, 1e-12);
  EXPECT_NEAR(r.dynamic_mw, 1.0, 1e-12);
}

TEST(DsentLite, BreakdownSumsToDynamic) {
  const DsentLitePowerModel model;
  const PowerReport r = model.report(sample_activity(), 10000, 64, 224);
  EXPECT_NEAR(r.dynamic_mw,
              r.buffer_mw + r.crossbar_mw + r.arbiter_mw + r.link_mw, 1e-12);
  EXPECT_NEAR(r.total_mw, r.dynamic_mw + r.static_mw, 1e-12);
}

TEST(DsentLite, StaticPowerScalesWithTopology) {
  const DsentLitePowerModel model;
  const ActivityCounters a = sample_activity();
  const PowerReport small = model.report(a, 1000, 16, 48);
  const PowerReport large = model.report(a, 1000, 64, 224);
  EXPECT_GT(large.static_mw, small.static_mw);
  EXPECT_NEAR(small.static_mw,
              16 * model.params().router_leakage_mw +
                  48 * model.params().link_leakage_mw,
              1e-9);
}

TEST(DsentLite, LongerWindowLowersPower) {
  const DsentLitePowerModel model;
  const ActivityCounters a = sample_activity();
  const PowerReport short_window = model.report(a, 1000, 64, 224);
  const PowerReport long_window = model.report(a, 2000, 64, 224);
  EXPECT_NEAR(long_window.dynamic_mw, short_window.dynamic_mw / 2.0, 1e-9);
}

TEST(DsentLite, EmptyWindowRejected) {
  const DsentLitePowerModel model;
  EXPECT_THROW(model.report(sample_activity(), 0, 64, 224), Error);
}

TEST(MeshLinkCount, KnownTopologies) {
  EXPECT_EQ(Mesh::square(8).num_directed_links(), 224u);  // 2*(8*7)*2
  EXPECT_EQ(Mesh::square(4).num_directed_links(), 48u);
  EXPECT_EQ(Mesh::square(2).num_directed_links(), 8u);
}

TEST(ActivityCounters, PlusEqualsAccumulates) {
  ActivityCounters a = sample_activity();
  const ActivityCounters b = sample_activity();
  a += b;
  EXPECT_EQ(a.buffer_writes, 2000u);
  EXPECT_EQ(a.link_traversals, 1600u);
  EXPECT_EQ(a.vc_allocations, 600u);
}

}  // namespace
}  // namespace nocmap
