// ParallelTrialRunner's execution contract (core/parallel.h) at 1, 2, 3 and
// 8 workers: every unit runs exactly once, empty and single-unit batches
// run inline on the caller, a throwing unit surfaces once on the caller
// after the rest of the batch ran, for_each_batch covers a ragged tail, and
// a worker count of 0 resolves to the hardware thread count.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace nocmap {
namespace {

class ParallelTrialRunnerTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  ParallelTrialRunner runner_{ParallelConfig{GetParam()}};
};

TEST_P(ParallelTrialRunnerTest, EveryIndexRunsExactlyOnce) {
  // Counts below, at and above every worker count, on one reused runner.
  for (const std::size_t count : {2, 3, 7, 8, 1000}) {
    std::vector<std::atomic<int>> hits(count);
    runner_.for_each(count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

TEST_P(ParallelTrialRunnerTest, EmptyAndSingleUnitBatchesRunInline) {
  EXPECT_EQ(runner_.num_threads(), GetParam());
  EXPECT_EQ(runner_.parallel(), GetParam() > 1);  // one worker, no team

  int calls = 0;
  runner_.for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::thread::id ran_on;
  runner_.for_each(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST_P(ParallelTrialRunnerTest, ThrowingUnitRethrowsOnceAfterTheOthersRan) {
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  int caught = 0;
  try {
    runner_.for_each(kCount, [&](std::size_t i) {
      ++hits[i];
      if (i == 42) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(caught, 1);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }

  // The runner stays usable and no stale error leaks into a clean batch.
  std::atomic<std::size_t> ran{0};
  EXPECT_NO_THROW(runner_.for_each(kCount, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), kCount);
}

TEST_P(ParallelTrialRunnerTest, EveryUnitThrowingRethrowsOnce) {
  // Batches smaller and larger than the team, every unit throwing.
  for (const std::size_t count : {1, 2, 64}) {
    for (int round = 0; round < 10; ++round) {
      int caught = 0;
      try {
        runner_.for_each(count, [](std::size_t) {
          throw std::runtime_error("every unit throws");
        });
      } catch (const std::runtime_error&) {
        ++caught;
      }
      EXPECT_EQ(caught, 1) << "count " << count << " round " << round;
    }
  }
  std::atomic<std::size_t> ran{0};
  EXPECT_NO_THROW(runner_.for_each(100, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 100u);
}

TEST_P(ParallelTrialRunnerTest, ForEachBatchCoversARaggedTail) {
  constexpr std::size_t kCount = 70;
  constexpr std::size_t kBatch = 16;
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(5);
  runner_.for_each_batch(kCount, kBatch, [&](std::size_t lo, std::size_t hi) {
    ranges[lo / kBatch] = {lo, hi};
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {0, 16}, {16, 32}, {32, 48}, {48, 64}, {64, 70}};
  EXPECT_EQ(ranges, want);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelTrialRunnerTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelConfig, ZeroResolvesToTheHardwareThreadCount) {
  const ParallelConfig all{0};
  EXPECT_GE(all.resolved_threads(), 1u);
  EXPECT_EQ(ParallelTrialRunner(all).num_threads(), all.resolved_threads());
}

// NOCMAP_THREADS is a whole worker count or nothing: a negative value must
// not wrap to 2^64-1 workers, and "2x" must not parse as 2.
TEST(ParallelConfig, ThreadCountTextIsWholeNumberOrAllThreads) {
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("3"), 3u);
  EXPECT_EQ(parse_thread_count("-1"), 0u);
  EXPECT_EQ(parse_thread_count("2x"), 0u);
}

}  // namespace
}  // namespace nocmap
