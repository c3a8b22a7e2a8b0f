#include "mm/pcp.hpp"

#include <gtest/gtest.h>

namespace explframe::mm {
namespace {

PcpConfig small_cfg() { return {.high = 8, .batch = 3, .lifo = true}; }

TEST(PerCpuPageCache, LifoReturnsMostRecentlyFreed) {
  PerCpuPageCache cache(small_cfg());
  cache.put(10);
  cache.put(20);
  cache.put(30);
  EXPECT_EQ(cache.take(), 30u);
  EXPECT_EQ(cache.take(), 20u);
  EXPECT_EQ(cache.take(), 10u);
  EXPECT_TRUE(cache.empty());
}

TEST(PerCpuPageCache, FreedFrameIsNextAllocation) {
  // The paper's core property: the frame a process just released is the
  // first frame handed out on the next small allocation.
  PerCpuPageCache cache(small_cfg());
  cache.refill({1, 2, 3});
  cache.put(99);  // "munmap" by the attacker
  EXPECT_EQ(cache.take(), 99u);
}

TEST(PerCpuPageCache, ColdFreesGoToTail) {
  PerCpuPageCache cache(small_cfg());
  cache.put(1);
  cache.put(2, /*cold=*/true);
  EXPECT_EQ(cache.take(), 1u);
  EXPECT_EQ(cache.take(), 2u);
}

TEST(PerCpuPageCache, FifoModeForAblation) {
  PcpConfig cfg = small_cfg();
  cfg.lifo = false;
  PerCpuPageCache cache(cfg);
  cache.put(1);
  cache.put(2);
  cache.put(3);
  EXPECT_EQ(cache.take(), 1u);
  EXPECT_EQ(cache.take(), 2u);
}

TEST(PerCpuPageCache, PutSignalsOverHigh) {
  PerCpuPageCache cache(small_cfg());
  for (Pfn p = 0; p < 8; ++p) EXPECT_FALSE(cache.put(p));
  EXPECT_TRUE(cache.put(100));  // count now 9 > high = 8
}

TEST(PerCpuPageCache, PopColdDrainsOldestFirst) {
  PerCpuPageCache cache(small_cfg());
  cache.put(1);
  cache.put(2);
  cache.put(3);
  const auto drained = cache.pop_cold(2);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1u);
  EXPECT_EQ(drained[1], 2u);
  EXPECT_EQ(cache.count(), 1u);
  // Hot page survives the drain — the planted frame outlives pressure.
  EXPECT_EQ(cache.take(), 3u);
}

TEST(PerCpuPageCache, PopColdMoreThanAvailable) {
  PerCpuPageCache cache(small_cfg());
  cache.put(5);
  const auto drained = cache.pop_cold(10);
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_TRUE(cache.empty());
}

TEST(PerCpuPageCache, RefillAppendsCold) {
  PerCpuPageCache cache(small_cfg());
  cache.put(42);          // hot
  cache.refill({7, 8, 9});  // bulk from buddy, cold end
  EXPECT_EQ(cache.take(), 42u);
  EXPECT_EQ(cache.take(), 7u);
}

TEST(PerCpuPageCache, PeekHotFirstNonDestructive) {
  PerCpuPageCache cache(small_cfg());
  cache.put(1);
  cache.put(2);
  const auto view = cache.peek();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 2u);
  EXPECT_EQ(view[1], 1u);
  EXPECT_EQ(cache.count(), 2u);
}

TEST(PerCpuPageCache, StatsTrackTraffic) {
  PerCpuPageCache cache(small_cfg());
  cache.refill({1, 2});
  cache.put(3);
  (void)cache.take();
  (void)cache.pop_cold(1);
  EXPECT_EQ(cache.stats().refills, 1u);
  EXPECT_EQ(cache.stats().frees, 1u);
  EXPECT_EQ(cache.stats().alloc_hits, 1u);
  EXPECT_EQ(cache.stats().drains, 1u);
  EXPECT_EQ(cache.stats().drained_pages, 1u);
}

}  // namespace
}  // namespace explframe::mm
