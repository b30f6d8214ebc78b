// bench::parallel_for_index (bench/common.hpp): the --threads fan-out every
// figure sweep uses.  Sweep output is only bit-identical across thread
// counts if every index runs exactly once, and a failing cell must surface
// on the caller's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  bench::parallel_for_index(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndex, SingleThreadRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t sum = 0;  // unsynchronized: only safe on the caller's thread
  bench::parallel_for_index(10, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 45u);
}

TEST(ParallelForIndex, ExceptionPropagatesThenStillUsable) {
  EXPECT_THROW(bench::parallel_for_index(100, 4,
                                         [](std::size_t i) {
                                           if (i == 37) {
                                             throw std::runtime_error("boom");
                                           }
                                         }),
               std::runtime_error);
  std::atomic<int> n{0};
  bench::parallel_for_index(100, 4, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

}  // namespace
