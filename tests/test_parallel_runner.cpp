// ParallelTrialRunner's execution contract (core/parallel.h) at 1, 2, 3 and
// 8 workers: every unit runs exactly once, empty and single-unit batches
// run inline on the caller, a throwing unit surfaces once on the caller
// after the rest of the batch ran, for_each_batch covers a ragged tail, and
// a worker count of 0 resolves to the hardware thread count. Every default
// worker policy is one worker, so default-constructed mappers start no
// thread. Worker counts from outside the program are bounded, and a worker
// team whose thread fails to start throws instead of aborting the process.
#include "core/parallel.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/genetic_mapper.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "service/mapping_service.h"
#include "sweep/runner.h"
#include "util/error.h"
#include "workload/synthesis.h"

// ASan and TSan reserve far more address space than the cap the worker-team
// death test sets, so the test cannot run under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NOCMAP_RESERVING_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NOCMAP_RESERVING_SANITIZER 1
#endif
#endif

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

// Threads start only on request: every default worker policy is one
// worker and builds a one-worker runner.
TEST(ParallelConfig, EveryDefaultIsOneWorker) {
  const std::pair<const char*, ParallelConfig> defaults[] = {
      {"ParallelConfig", ParallelConfig{}},
      {"SssOptions", SssOptions{}.parallel},
      {"AnnealingParams", AnnealingParams{}.parallel},
      {"GeneticParams", GeneticParams{}.parallel},
      {"ServiceConfig", service::ServiceConfig{}.sss.parallel},
      {"CampaignOptions", sweep::CampaignOptions{}.parallel},
  };
  for (const auto& [name, config] : defaults) {
    SCOPED_TRACE(name);
    EXPECT_EQ(config.resolved_threads(), 1u);
    EXPECT_EQ(ParallelTrialRunner(config).num_threads(), 1u);
  }
}

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

/// Threads that appeared while `work` ran: a watcher thread counts
/// /proc/self/task once before the work starts (the baseline, taken after
/// any runtime thread that starting the watcher brings along) and keeps
/// sampling until the work is done.
std::size_t threads_started_during(const std::function<void()>& work) {
  std::atomic<std::size_t> baseline{0};
  std::atomic<bool> done{false};
  std::size_t peak = 0;
  std::thread watcher([&] {
    peak = live_threads();
    baseline.store(peak);
    while (!done.load()) peak = std::max(peak, live_threads());
  });
  while (baseline.load() == 0) std::this_thread::yield();
  work();
  done.store(true);
  watcher.join();
  return peak - baseline.load();
}

// MonteCarloMapper keeps its default ParallelConfig argument private, so
// its map() is watched instead, next to the other default mappers: none
// may start a worker team.
TEST(ParallelConfig, DefaultMappersStartNoThread) {
  const ObmProblem problem(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C1"), 3));
  MonteCarloMapper mc;
  SortSelectSwapMapper sss;
  AnnealingMapper sa(AnnealingParams{.iterations = 20000});
  GeneticMapper ga(GeneticParams{.generations = 20});
  for (Mapper* mapper : std::initializer_list<Mapper*>{&mc, &sss, &sa, &ga}) {
    SCOPED_TRACE(mapper->name());
    EXPECT_EQ(threads_started_during([&] { (void)mapper->map(problem); }),
              0u);
  }
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

// A count from outside the program above kMaxWorkers never reaches a
// worker team: NOCMAP_THREADS falls back to all hardware threads, and a
// tool option is an error that names the option. No thread is started.
TEST(ParallelConfig, WorkerCountsFromOutsideAreBounded) {
  EXPECT_EQ(kMaxWorkers, 256u);
  EXPECT_EQ(parse_thread_count("256"), 256u);
  EXPECT_EQ(parse_thread_count("257"), 0u);
  EXPECT_EQ(parse_thread_count("18446744073709551615"), 0u);
  EXPECT_EQ(parse_worker_count("0", "--threads"), 0u);
  EXPECT_EQ(parse_worker_count("256", "--threads"), 256u);
  try {
    (void)parse_worker_count("257", "--threads");
    FAIL() << "expected the worker bound to reject 257";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_worker_count("-1", "--threads"), Error);
}

/// Caps this process's address space a few thread stacks above its current
/// size, so the first workers of a team start and a later one cannot.
void cap_address_space_a_few_stacks_up() {
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  pthread_attr_t attr;
  std::size_t stack = 0;
  pthread_getattr_default_np(&attr);
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  const std::size_t cap =
      pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) + 4 * stack;
  const rlimit limit{cap, cap};
  setrlimit(RLIMIT_AS, &limit);
}

// When a thread fails to start, unwinding through the joinable threads
// that did start would call std::terminate. The team must join them and
// rethrow, so the caller can catch the std::system_error.
TEST(CycleWorkerTeamDeathTest, FailedThreadStartThrowsInsteadOfAborting) {
#ifdef NOCMAP_RESERVING_SANITIZER
  GTEST_SKIP() << "the sanitizer reserves more address space than the cap";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space_a_few_stacks_up();
        try {
          CycleWorkerTeam team(64);
        } catch (const std::system_error&) {
          std::_Exit(0);
        }
        std::_Exit(1);  // every thread started: the cap did not bind
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace nocmap
