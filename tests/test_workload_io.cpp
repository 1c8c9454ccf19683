#include "workload/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

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
  // Synthesized rates carry more than the stream's default 6 significant
  // digits; every one must read back exactly.
  const std::string path = ::testing::TempDir() + "/nocmap_workload.csv";
  const Workload original =
      synthesize_workload(parsec_config("C2"), 13);
  save_workload_csv(original, path);
  const Workload loaded = load_workload_csv(path);
  ASSERT_EQ(loaded.num_applications(), original.num_applications());
  ASSERT_EQ(loaded.num_threads(), original.num_threads());
  for (std::size_t a = 0; a < original.num_applications(); ++a) {
    EXPECT_EQ(loaded.application(a).name, original.application(a).name);
  }
  for (std::size_t j = 0; j < original.num_threads(); ++j) {
    EXPECT_EQ(loaded.thread(j).cache_rate, original.thread(j).cache_rate);
    EXPECT_EQ(loaded.thread(j).memory_rate, original.thread(j).memory_rate);
  }
  std::remove(path.c_str());
}

TEST(WorkloadIo, UnreadableNamesRefusedAtSave) {
  // Each of these would load back as an error or as a different workload.
  const auto save_error = [](std::vector<std::string> names) {
    std::vector<Application> apps;
    for (std::string& name : names) {
      apps.push_back({std::move(name), {{1.0, 0.1}}});
    }
    std::stringstream ss;
    try {
      write_workload_csv(Workload(std::move(apps)), ss);
    } catch (const Error& e) {
      EXPECT_TRUE(ss.str().empty()) << "wrote before refusing";
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_NE(save_error({"web", ""}).find("application 1"), std::string::npos);
  EXPECT_NE(save_error({"web,db"}).find("'web,db'"), std::string::npos);
  EXPECT_NE(save_error({"web\ndb"}).find("'web\ndb'"), std::string::npos);
  EXPECT_NE(save_error({"web", "db", "web"}).find("'web'"),
            std::string::npos);
  EXPECT_EQ(save_error({"web", "db"}), "(no error)");
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
  // The number parser reads both spellings; an infinite rate has no finite
  // mapping cost, so the workload must never reach a mapper.
  for (const std::string rate : {"inf", "infinity"}) {
    std::stringstream ss(
        "application,thread,cache_rate,memory_rate\n"
        "web,0," + rate + ",0.1\n"
        "web,1,1.0,0.1\n");
    EXPECT_THROW(read_workload_csv(ss), Error) << rate;
  }
}

TEST(WorkloadIo, LenientRateSpellingsRejected) {
  // A rate is one whole decimal token, as in repro files and mapping CSVs.
  for (const std::string rate : {" 1.5", "0x1p0", "+0.1"}) {
    std::stringstream ss(
        "application,thread,cache_rate,memory_rate\n"
        "web,0," + rate + ",0.1\n");
    EXPECT_THROW(read_workload_csv(ss), Error) << "'" << rate << "'";
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
