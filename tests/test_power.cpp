#include "power/dsent_lite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

std::string hexfloat(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

TEST(DsentLite, EnergyIsLinearInActivity) {
  const Mesh mesh = Mesh::square(8);
  const ActivityCounters a = sample_activity();
  ActivityCounters doubled = a;
  doubled += a;
  EXPECT_NEAR(power_report(doubled, 1000, mesh).dynamic_mw,
              2.0 * power_report(a, 1000, mesh).dynamic_mw, 1e-9);
}

TEST(DsentLite, HandComputedEnergy) {
  ActivityCounters a;
  a.buffer_writes = 10;
  a.buffer_reads = 10;
  a.crossbar_traversals = 10;
  a.link_traversals = 10;
  a.sw_arbitrations = 10;
  a.vc_allocations = 10;
  // Ten of every event over 20 cycles: pJ · GHz / cycles = mW.
  const double energy_pj = 10 * (kBufferWritePj + kBufferReadPj +
                                 kCrossbarPj + kSwArbiterPj + kVcArbiterPj +
                                 kLinkPj);
  const PowerReport r = power_report(a, 20, Mesh::square(4));
  EXPECT_NEAR(r.dynamic_mw, energy_pj * kClockGhz / 20.0, 1e-12);
  EXPECT_NEAR(r.link_mw, 10 * kLinkPj * kClockGhz / 20.0, 1e-12);
}

TEST(DsentLite, ReportUnitsAreMilliwatts) {
  // 2000 cycles at 2 GHz are 1 us, and 1000 pJ per us is 1 mW, so 1000
  // buffer writes draw kBufferWritePj milliwatts.
  static_assert(kClockGhz == 2.0);
  ActivityCounters a;
  a.buffer_writes = 1000;
  const PowerReport r = power_report(a, 2000, Mesh::square(2));
  EXPECT_NEAR(r.buffer_mw, kBufferWritePj, 1e-12);
  EXPECT_NEAR(r.dynamic_mw, kBufferWritePj, 1e-12);
}

TEST(DsentLite, BreakdownSumsToDynamic) {
  const PowerReport r =
      power_report(sample_activity(), 10000, Mesh::square(8));
  EXPECT_NEAR(r.dynamic_mw,
              r.buffer_mw + r.crossbar_mw + r.arbiter_mw + r.link_mw, 1e-12);
  EXPECT_NEAR(r.total_mw, r.dynamic_mw + r.static_mw, 1e-12);
}

TEST(DsentLite, StaticPowerScalesWithTopology) {
  const ActivityCounters a = sample_activity();
  const PowerReport small = power_report(a, 1000, Mesh::square(4));
  const PowerReport large = power_report(a, 1000, Mesh::square(8));
  EXPECT_GT(large.static_mw, small.static_mw);
  // 16 routers and 48 directed links.
  EXPECT_NEAR(small.static_mw, 16 * kRouterLeakageMw + 48 * kLinkLeakageMw,
              1e-9);
}

TEST(DsentLite, LongerWindowLowersPower) {
  const Mesh mesh = Mesh::square(8);
  const ActivityCounters a = sample_activity();
  const PowerReport short_window = power_report(a, 1000, mesh);
  const PowerReport long_window = power_report(a, 2000, mesh);
  EXPECT_NEAR(long_window.dynamic_mw, short_window.dynamic_mw / 2.0, 1e-9);
}

TEST(DsentLite, EmptyWindowRejected) {
  EXPECT_THROW(power_report(sample_activity(), 0, Mesh::square(8)), Error);
}

// Every field of one 8x8 report (64 routers, 224 links), recorded before
// the power model became a function of the mesh: the sweep log's
// dynamic_mw and total_mw depend on this arithmetic order.
TEST(DsentLite, PinnedReportOn8x8) {
  const PowerReport r =
      power_report(sample_activity(), 10000, Mesh::square(8));
  EXPECT_EQ(hexfloat(r.buffer_mw), "0x1.c28f5c28f5c29p-2");
  EXPECT_EQ(hexfloat(r.crossbar_mw), "0x1.51eb851eb851fp-2");
  EXPECT_EQ(hexfloat(r.arbiter_mw), "0x1.1d14e3bcd35a9p-5");
  EXPECT_EQ(hexfloat(r.link_mw), "0x1.5810624dd2f1bp-2");
  EXPECT_EQ(hexfloat(r.dynamic_mw), "0x1.240b780346dc6p+0");
  EXPECT_EQ(hexfloat(r.static_mw), "0x1.14ccccccccccdp+9");
  EXPECT_EQ(hexfloat(r.total_mw), "0x1.155ed288ce704p+9");
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
