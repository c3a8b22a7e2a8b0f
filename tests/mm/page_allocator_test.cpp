#include "mm/page_allocator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/rng.hpp"

namespace explframe::mm {
namespace {

AllocatorConfig default_cfg() {
  AllocatorConfig cfg;
  cfg.total_bytes = 64 * kMiB;
  cfg.num_cpus = 2;
  return cfg;
}

TEST(PageAllocator, ZoneCarvingSmallMachine) {
  PageAllocator alloc(default_cfg());
  // 64 MiB < 4 GiB: DMA (16 MiB minus reservation) + DMA32, no NORMAL.
  ASSERT_EQ(alloc.zone_count(), 2u);
  EXPECT_EQ(alloc.zone(0).type(), ZoneType::kDma);
  EXPECT_EQ(alloc.zone(1).type(), ZoneType::kDma32);
  EXPECT_EQ(alloc.zone(0).start_pfn(), 256u);  // 1 MiB reserved
  EXPECT_EQ(alloc.zone(0).end_pfn(), 4096u);   // 16 MiB boundary
  EXPECT_EQ(alloc.zone(1).end_pfn(), 16384u);
}

TEST(PageAllocator, ZonelistFallbackOrder) {
  PageAllocator alloc(default_cfg());
  const auto normal = alloc.zonelist(GfpZonePreference::kNormal);
  ASSERT_EQ(normal.size(), 2u);
  EXPECT_EQ(alloc.zone(normal[0]).type(), ZoneType::kDma32);
  EXPECT_EQ(alloc.zone(normal[1]).type(), ZoneType::kDma);
  const auto dma = alloc.zonelist(GfpZonePreference::kDma);
  ASSERT_EQ(dma.size(), 1u);
  EXPECT_EQ(alloc.zone(dma[0]).type(), ZoneType::kDma);
}

TEST(PageAllocator, OrderZeroComesFromPreferredZonePcp) {
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->from_pcp);
  EXPECT_EQ(alloc.zone(a->zone_index).type(), ZoneType::kDma32);
  EXPECT_EQ(alloc.frames().at(a->pfn).state, PageState::kAllocated);
  EXPECT_EQ(alloc.frames().at(a->pfn).owner_task, 1);
  alloc.verify();
}

TEST(PageAllocator, FreedPageReallocatedToSameCpu) {
  // §V of the paper: free then alloc on the same CPU returns the same
  // frame, with probability ~1.
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a);
  alloc.free_pages(a->pfn, 0, 0);
  const auto b = alloc.alloc_pages(0, GfpFlags::user(), 0, 2);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->pfn, a->pfn);
}

TEST(PageAllocator, FreedPageNotSeenByOtherCpu) {
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a);
  alloc.free_pages(a->pfn, 0, 0);
  // CPU 1 allocates: must not receive CPU 0's cached frame.
  const auto b = alloc.alloc_pages(0, GfpFlags::user(), 1, 2);
  ASSERT_TRUE(b);
  EXPECT_NE(b->pfn, a->pfn);
}

TEST(PageAllocator, PcpRefillBatchSize) {
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a);
  // The first order-0 miss pulls one full batch from buddy and hands out a
  // single page from it.
  EXPECT_EQ(alloc.stats().pcp_refills, 1u);
  Zone& zone = alloc.zone(a->zone_index);
  EXPECT_EQ(zone.pcp(0).count() + 1, default_cfg().pcp.batch);
}

TEST(PageAllocator, PcpDrainsWhenOverHigh) {
  AllocatorConfig cfg = default_cfg();
  cfg.pcp.high = 8;
  cfg.pcp.batch = 4;
  PageAllocator alloc(cfg);
  std::vector<Pfn> held;
  for (int i = 0; i < 16; ++i) {
    const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
    ASSERT_TRUE(a);
    held.push_back(a->pfn);
  }
  for (const Pfn p : held) alloc.free_pages(p, 0, 0);
  Zone& zone = *alloc.zone_of(held[0]);
  // Cache was repeatedly trimmed back to <= high.
  EXPECT_LE(zone.pcp(0).count(), cfg.pcp.high + 1);
  alloc.verify();
}

TEST(PageAllocator, HighOrderBypassesPcp) {
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(4, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a);
  EXPECT_FALSE(a->from_pcp);
  EXPECT_EQ(a->order, 4u);
  EXPECT_EQ(a->pfn % 16, 0u);
  alloc.free_pages(a->pfn, 4, 0);
  alloc.verify();
}

TEST(PageAllocator, DmaPreferenceServedFromDmaZone) {
  PageAllocator alloc(default_cfg());
  const auto a =
      alloc.alloc_pages(0, GfpFlags{GfpZonePreference::kDma}, 0, 1);
  ASSERT_TRUE(a);
  EXPECT_EQ(alloc.zone(a->zone_index).type(), ZoneType::kDma);
}

TEST(PageAllocator, FallbackWhenPreferredExhausted) {
  PageAllocator alloc(default_cfg());
  // Keep allocating order-0 user pages: once DMA32 drops under its
  // watermark the allocator must fall back to ZONE_DMA before giving up.
  bool saw_dma32 = false;
  bool saw_dma = false;
  for (;;) {
    const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
    if (!a) break;
    const auto type = alloc.zone(a->zone_index).type();
    saw_dma32 |= type == ZoneType::kDma32;
    saw_dma |= type == ZoneType::kDma;
  }
  EXPECT_TRUE(saw_dma32);
  EXPECT_TRUE(saw_dma);
  EXPECT_GT(alloc.stats().zone_fallbacks, 0u);
  EXPECT_GT(alloc.stats().watermark_skips, 0u);
}

TEST(PageAllocator, OomReturnsNullopt) {
  AllocatorConfig cfg;
  cfg.total_bytes = 32 * kMiB;
  cfg.num_cpus = 1;
  PageAllocator alloc(cfg);
  std::size_t got = 0;
  while (alloc.alloc_pages(0, GfpFlags::user(), 0, 1)) ++got;
  EXPECT_GT(got, 0u);
  EXPECT_GT(alloc.stats().failures, 0u);
  // Watermarks keep a reserve: we can't take literally everything.
  EXPECT_LT(got, alloc.total_pages());
}

TEST(PageAllocator, ChurnKeepsAccountingConsistent) {
  PageAllocator alloc(default_cfg());
  Rng rng(99);
  struct Held {
    Pfn pfn;
    std::uint32_t order;
    std::uint32_t cpu;
  };
  std::vector<Held> held;
  for (int step = 0; step < 20000; ++step) {
    if (held.empty() || rng.bernoulli(0.55)) {
      const auto order = static_cast<std::uint32_t>(rng.uniform(4));
      const auto cpu = static_cast<std::uint32_t>(rng.uniform(2));
      const auto a = alloc.alloc_pages(order, GfpFlags::user(), cpu, 1);
      if (a) held.push_back({a->pfn, a->order, cpu});
    } else {
      const std::size_t i = rng.uniform(held.size());
      alloc.free_pages(held[i].pfn, held[i].order, held[i].cpu);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  alloc.verify();
  // No frame is held twice.
  std::set<Pfn> seen;
  for (const auto& h : held) {
    for (Pfn i = 0; i < (Pfn{1} << h.order); ++i) {
      EXPECT_TRUE(seen.insert(h.pfn + i).second);
      EXPECT_EQ(alloc.frames().at(h.pfn + i).state, PageState::kAllocated);
    }
  }
}

TEST(PageAllocator, AllocSequenceMonotonic) {
  PageAllocator alloc(default_cfg());
  const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  const auto b = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(a && b);
  EXPECT_LT(alloc.frames().at(a->pfn).alloc_seq,
            alloc.frames().at(b->pfn).alloc_seq);
}

TEST(PageAllocator, ColdFreeDoesNotPreemptHotHead) {
  PageAllocator alloc(default_cfg());
  const auto hot = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  const auto cold = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
  ASSERT_TRUE(hot && cold);
  alloc.free_pages(hot->pfn, 0, 0);
  alloc.free_pages(cold->pfn, 0, 0, /*cold=*/true);
  const auto next = alloc.alloc_pages(0, GfpFlags::user(), 0, 2);
  ASSERT_TRUE(next);
  EXPECT_EQ(next->pfn, hot->pfn);
}

}  // namespace
}  // namespace explframe::mm
