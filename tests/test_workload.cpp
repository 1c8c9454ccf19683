#include "workload/workload.h"

#include <gtest/gtest.h>

#include <limits>

namespace nocmap {
namespace {

Workload make_two_app_workload() {
  Application a;
  a.name = "a";
  a.threads = {{1.0, 0.1}, {2.0, 0.2}};
  Application b;
  b.name = "b";
  b.threads = {{3.0, 0.3}, {4.0, 0.4}, {5.0, 0.5}};
  return Workload({a, b});
}

TEST(ThreadProfile, TotalRate) {
  const ThreadProfile t{2.0, 0.5};
  EXPECT_DOUBLE_EQ(t.total_rate(), 2.5);
}

TEST(Application, RateSums) {
  Application a;
  a.threads = {{1.0, 0.25}, {2.0, 0.75}};
  EXPECT_DOUBLE_EQ(a.total_cache_rate(), 3.0);
  EXPECT_DOUBLE_EQ(a.total_memory_rate(), 1.0);
  EXPECT_DOUBLE_EQ(a.total_rate(), 4.0);
}

TEST(Workload, FlatteningAndBoundaries) {
  const Workload wl = make_two_app_workload();
  EXPECT_EQ(wl.num_applications(), 2u);
  EXPECT_EQ(wl.num_threads(), 5u);
  EXPECT_EQ(wl.first_thread(0), 0u);
  EXPECT_EQ(wl.last_thread(0), 2u);
  EXPECT_EQ(wl.first_thread(1), 2u);
  EXPECT_EQ(wl.last_thread(1), 5u);
  EXPECT_DOUBLE_EQ(wl.thread(3).cache_rate, 4.0);
}

TEST(Workload, OwnershipLookup) {
  const Workload wl = make_two_app_workload();
  EXPECT_EQ(wl.application_of(0), 0u);
  EXPECT_EQ(wl.application_of(1), 0u);
  EXPECT_EQ(wl.application_of(2), 1u);
  EXPECT_EQ(wl.application_of(4), 1u);
  EXPECT_THROW(wl.application_of(5), Error);
}

TEST(Workload, ValidationRejectsBadInput) {
  EXPECT_THROW(Workload({}), Error);
  Application empty;
  empty.name = "empty";
  EXPECT_THROW(Workload({empty}), Error);
  Application negative;
  negative.threads = {{-1.0, 0.0}};
  EXPECT_THROW(Workload({negative}), Error);
  Application non_finite;
  non_finite.threads = {{std::numeric_limits<double>::infinity(), 0.0}};
  EXPECT_THROW(Workload({non_finite}), Error);
  non_finite.threads = {{1.0, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(Workload({non_finite}), Error);
}

TEST(Workload, PaddingAddsIdleApplication) {
  const Workload wl = make_two_app_workload();
  const Workload padded = wl.padded_to(8);
  EXPECT_EQ(padded.num_applications(), 3u);
  EXPECT_EQ(padded.num_threads(), 8u);
  EXPECT_EQ(padded.application(2).name, "idle");
  for (std::size_t j = 5; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(padded.thread(j).total_rate(), 0.0);
  }
}

TEST(Workload, PaddingNoOpWhenExact) {
  const Workload wl = make_two_app_workload();
  const Workload same = wl.padded_to(5);
  EXPECT_EQ(same.num_applications(), 2u);
  EXPECT_THROW(wl.padded_to(3), Error);
}

}  // namespace
}  // namespace nocmap
