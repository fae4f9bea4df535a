#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace mtd {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n : {0, 1, 3, 37}) {
    // 8 threads exceed the job count for every n but 37.
    for (const std::size_t threads : {1, 2, 4, 8}) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(
          n, [&](std::size_t i) { runs[i].fetch_add(1); }, threads);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, GatheredResultsEqualTheSerialLoop) {
  // Each job draws from a stream fixed by its index and writes its own
  // slot, as the use-case jobs do.
  constexpr std::size_t kJobs = 37;
  const Rng root(5);
  const auto job = [&root](std::size_t i) {
    Rng rng = root.split(100 + i);
    double sum = 0.0;
    for (std::size_t k = 0; k < 1000 + 17 * i; ++k) sum += rng.normal();
    return sum;
  };
  std::vector<double> serial(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) serial[i] = job(i);
  for (const std::size_t threads : {1, 2, 4}) {
    std::vector<double> gathered(kJobs);
    parallel_for(
        kJobs, [&](std::size_t i) { gathered[i] = job(i); }, threads);
    EXPECT_EQ(gathered, serial) << threads << " threads";
  }
}

TEST(ParallelFor, ExceptionReachesTheCallerAfterEveryThreadJoined) {
  // The calling thread fails its first job once a pool thread is inside a
  // slow one: the exception must wait for that job to finish.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  try {
    parallel_for(
        8,
        [&](std::size_t) {
          if (std::this_thread::get_id() == caller) {
            while (running.load() == 0) std::this_thread::yield();
            throw std::runtime_error("caller's job");
          }
          running.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          finished.fetch_add(1);
          running.fetch_sub(1);
        },
        4);
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller's job");
  }
  EXPECT_EQ(running.load(), 0);
  EXPECT_GE(finished.load(), 1);
}

TEST(ParallelFor, LowestFailingIndexIsRethrown) {
  for (const std::size_t threads : {1, 2, 4}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      try {
        parallel_for(
            8,
            [](std::size_t i) {
              if (i == 2 || i == 5) {
                throw std::runtime_error("job " + std::to_string(i));
              }
            },
            threads);
        FAIL() << "no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "job 2") << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace mtd
