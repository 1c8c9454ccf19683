#include "workload/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "workload/synthesis.h"

namespace nocmap {
namespace {

Workload sample_workload() {
  Application a;
  a.name = "web";
  a.threads = {{6.25, 0.81}, {5.9, 0.77}};
  Application b;
  b.name = "db";
  b.threads = {{12.4, 2.05}};
  return Workload({a, b});
}

TEST(WorkloadIo, RoundTripThroughStreams) {
  const Workload original = sample_workload();
  std::stringstream ss;
  write_workload_csv(original, ss);
  const Workload loaded = read_workload_csv(ss);

  ASSERT_EQ(loaded.num_applications(), original.num_applications());
  ASSERT_EQ(loaded.num_threads(), original.num_threads());
  for (std::size_t a = 0; a < original.num_applications(); ++a) {
    EXPECT_EQ(loaded.application(a).name, original.application(a).name);
  }
  for (std::size_t j = 0; j < original.num_threads(); ++j) {
    EXPECT_DOUBLE_EQ(loaded.thread(j).cache_rate,
                     original.thread(j).cache_rate);
    EXPECT_DOUBLE_EQ(loaded.thread(j).memory_rate,
                     original.thread(j).memory_rate);
  }
}

TEST(WorkloadIo, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/nocmap_workload.csv";
  const Workload original =
      synthesize_workload(parsec_config("C2"), 13);
  save_workload_csv(original, path);
  const Workload loaded = load_workload_csv(path);
  ASSERT_EQ(loaded.num_threads(), original.num_threads());
  for (std::size_t j = 0; j < original.num_threads(); ++j) {
    EXPECT_NEAR(loaded.thread(j).cache_rate, original.thread(j).cache_rate,
                1e-4);
  }
  std::remove(path.c_str());
}

TEST(WorkloadIo, HeaderRequired) {
  std::stringstream ss("web,0,1.0,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, EmptyInputRejected) {
  std::stringstream ss("");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, HeaderOnlyRejected) {
  std::stringstream ss("application,thread,cache_rate,memory_rate\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, WindowsLineEndingsAccepted) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\r\n"
      "web,0,1.5,0.2\r\n");
  const Workload wl = read_workload_csv(ss);
  EXPECT_EQ(wl.num_threads(), 1u);
  EXPECT_DOUBLE_EQ(wl.thread(0).cache_rate, 1.5);
}

TEST(WorkloadIo, BlankLinesSkipped) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,1.0,0.1\n"
      "\n"
      "web,1,2.0,0.2\n");
  const Workload wl = read_workload_csv(ss);
  EXPECT_EQ(wl.num_threads(), 2u);
}

TEST(WorkloadIo, NonNumericRateRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,fast,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, TrailingJunkInRateRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,1.0x,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, NegativeRateRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,-1.0,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, InfiniteRateRejected) {
  // std::stod accepts both spellings; an infinite rate has no finite
  // mapping cost, so the workload must never reach a mapper.
  for (const std::string rate : {"inf", "infinity"}) {
    std::stringstream ss(
        "application,thread,cache_rate,memory_rate\n"
        "web,0," + rate + ",0.1\n"
        "web,1,1.0,0.1\n");
    EXPECT_THROW(read_workload_csv(ss), Error) << rate;
  }
}

TEST(WorkloadIo, ThreadIndexGapRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,1.0,0.1\n"
      "web,2,1.0,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, NonContiguousApplicationRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,1.0,0.1\n"
      "db,0,2.0,0.2\n"
      "web,1,1.0,0.1\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, WrongColumnCountRejected) {
  std::stringstream ss(
      "application,thread,cache_rate,memory_rate\n"
      "web,0,1.0\n");
  EXPECT_THROW(read_workload_csv(ss), Error);
}

TEST(WorkloadIo, MissingFileThrows) {
  EXPECT_THROW(load_workload_csv("/nonexistent/path.csv"), Error);
  EXPECT_THROW(save_workload_csv(sample_workload(), "/nonexistent/x.csv"),
               Error);
}

}  // namespace
}  // namespace nocmap
