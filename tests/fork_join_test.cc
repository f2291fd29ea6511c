// ForkJoinPool: every index runs exactly once on participant
// i % threads(), the caller is participant 0, a pool is reusable across
// dispatches, and a task's exception reaches the caller after the join.

#include "common/fork_join.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace spes {
namespace {

TEST(ForkJoinPoolTest, EveryIndexRunsOnceOnItsParticipant) {
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ForkJoinPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{10}}) {
      std::vector<int> runs(count, 0);
      std::vector<std::thread::id> ran_on(count);
      pool.Run(count, [&](size_t i) {
        ++runs[i];
        ran_on[i] = std::this_thread::get_id();
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i], 1) << i;
        // Indices sharing a participant share a thread; participant 0 is
        // the caller.
        EXPECT_EQ(ran_on[i], ran_on[i % static_cast<size_t>(threads)]) << i;
        if (i % static_cast<size_t>(threads) == 0) {
          EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
        } else {
          EXPECT_NE(ran_on[i], std::this_thread::get_id()) << i;
        }
      }
    }
  }
}

TEST(ForkJoinPoolTest, ReusedAcrossManyDispatches) {
  ForkJoinPool pool(4);
  std::vector<int64_t> sums(4, 0);
  for (int round = 0; round < 2000; ++round) {
    pool.Run(sums.size(), [&sums, round](size_t i) { sums[i] += round; });
  }
  for (int64_t sum : sums) EXPECT_EQ(sum, int64_t{1999} * 2000 / 2);
}

TEST(ForkJoinPoolTest, TaskExceptionReachesTheCallerAfterTheJoin) {
  ForkJoinPool pool(3);
  std::vector<int> runs(6, 0);
  const auto throw_at_4 = [&runs](size_t i) {
    ++runs[i];
    if (i == 4) throw std::runtime_error("index 4");
  };
  EXPECT_THROW(pool.Run(runs.size(), throw_at_4), std::runtime_error);
  // The other participants finished their shares; index 4 was the last
  // of its own.
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1, 1, 1}));
  // The pool stays usable and the failure does not repeat.
  pool.Run(runs.size(), [&runs](size_t i) { ++runs[i]; });
  EXPECT_EQ(runs, (std::vector<int>{2, 2, 2, 2, 2, 2}));
}

}  // namespace
}  // namespace spes
