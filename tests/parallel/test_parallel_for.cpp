#include "parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/stopwatch.h"
#include "parallel/topology.h"

namespace dqmc::par {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr index_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](index_t i) { hits[i].fetch_add(1); }, {.grain = 16});
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&](index_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, NonZeroBegin) {
  std::vector<int> hits(20, 0);
  parallel_for(10, 20, [&](index_t i) { hits[i] = 1; }, {.grain = 1});
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i], 0);
  for (index_t i = 10; i < 20; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelFor, SmallLoopRunsSerially) {
  // With grain larger than the range, the loop must not spawn: every
  // iteration sees the same thread-local counter.
  thread_local int counter = 0;
  counter = 0;
  parallel_for(0, 8, [&](index_t) { ++counter; }, {.grain = 1024});
  EXPECT_EQ(counter, 8);
}

TEST(ParallelForChunks, ChunksArePairwiseDisjointAndCover) {
  constexpr index_t n = 4097;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      0, n,
      [&](index_t lo, index_t hi) {
        EXPECT_LT(lo, hi);
        for (index_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      {.grain = 64});
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Topology, OverrideAndReset) {
  const int def = num_threads();
  EXPECT_GE(def, 1);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_EQ(num_threads(), def);
}

// A top-level thread asks for its budget at every parallel region (tens of
// thousands of times per sweep), so the environment is not re-read per call.
TEST(Topology, BudgetLookupIsCheap) {
  ASSERT_EQ(num_threads(), num_threads());
  const Stopwatch watch;
  long sum = 0;
  for (int i = 0; i < 1'000'000; ++i) sum += num_threads();
  EXPECT_LT(watch.seconds(), 0.2);
  EXPECT_EQ(sum, 1'000'000L * num_threads());
}

}  // namespace
}  // namespace dqmc::par
