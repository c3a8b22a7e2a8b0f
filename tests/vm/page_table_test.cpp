#include "vm/page_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "support/rng.hpp"

namespace explframe::vm {
namespace {

TEST(PageTable, MapFindUnmap) {
  PageTable pt;
  EXPECT_TRUE(pt.map(0x1000, 42));
  const Pte* pte = pt.find(0x1000);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->pfn, 42u);
  const auto pfn = pt.unmap(0x1000);
  ASSERT_TRUE(pfn);
  EXPECT_EQ(*pfn, 42u);
  EXPECT_EQ(pt.find(0x1000), nullptr);
}

TEST(PageTable, FindUnmappedReturnsNull) {
  PageTable pt;
  EXPECT_EQ(pt.find(0x2000), nullptr);
  EXPECT_FALSE(pt.unmap(0x2000).has_value());
}

TEST(PageTable, DistantAddressesUseSeparateSubtrees) {
  PageTable pt;
  const VirtAddr lo = 0x0000'0000'1000ULL;
  const VirtAddr hi = 0x7fff'ffff'f000ULL;
  EXPECT_TRUE(pt.map(lo, 1));
  EXPECT_TRUE(pt.map(hi, 2));
  EXPECT_EQ(pt.find(lo)->pfn, 1u);
  EXPECT_EQ(pt.find(hi)->pfn, 2u);
  EXPECT_EQ(pt.mapped_pages(), 2u);
}

TEST(PageTable, MappedCountTracksChanges) {
  PageTable pt;
  for (VirtAddr va = 0; va < 100 * kPageSize; va += kPageSize)
    EXPECT_TRUE(pt.map(va, va / kPageSize));
  EXPECT_EQ(pt.mapped_pages(), 100u);
  for (VirtAddr va = 0; va < 50 * kPageSize; va += kPageSize)
    EXPECT_TRUE(pt.unmap(va).has_value());
  EXPECT_EQ(pt.mapped_pages(), 50u);
}

TEST(PageTable, NodePruningOnUnmap) {
  PageTable pt;
  const std::uint64_t nodes_empty = pt.table_nodes();
  EXPECT_TRUE(pt.map(0x1000, 7));
  EXPECT_GT(pt.table_nodes(), nodes_empty);
  pt.unmap(0x1000);
  EXPECT_EQ(pt.table_nodes(), nodes_empty);
}

TEST(PageTable, SharedIntermediateNodesSurvivePartialUnmap) {
  PageTable pt;
  EXPECT_TRUE(pt.map(0x1000, 1));
  EXPECT_TRUE(pt.map(0x2000, 2));  // same leaf node
  const std::uint64_t nodes = pt.table_nodes();
  pt.unmap(0x1000);
  EXPECT_EQ(pt.table_nodes(), nodes);  // leaf still needed for 0x2000
  EXPECT_EQ(pt.find(0x2000)->pfn, 2u);
}

TEST(PageTable, FrameClientChargedPerNode) {
  std::uint64_t next = 100;
  std::vector<mm::Pfn> freed;
  FrameClient client{[&] { return next++; },
                     [&](mm::Pfn p) { freed.push_back(p); }};
  {
    PageTable pt(std::move(client));
    // Root charged at construction; mapping one page charges 3 more levels.
    EXPECT_TRUE(pt.map(0x1000, 1));
    EXPECT_EQ(next, 104u);  // root + PUD + PMD + PTE nodes
    pt.unmap(0x1000);
    // Pruned bottom-up: PTE, PMD, PUD; the root stays.
    EXPECT_EQ(freed, (std::vector<mm::Pfn>{103, 102, 101}));
  }
  EXPECT_EQ(freed.size(), 4u);  // destructor releases the root frame
}

TEST(PageTable, DestructorFreesLeavesFirstAndRootLast) {
  std::uint64_t next = 100;
  std::vector<mm::Pfn> freed;
  {
    PageTable pt(FrameClient{[&] { return next++; },
                             [&](mm::Pfn p) { freed.push_back(p); }});
    EXPECT_TRUE(pt.map(0x1000, 1));             // root 100, PUD..PTE 101-103
    EXPECT_TRUE(pt.map(0x4000'0000'0000, 2));   // PUD..PTE 104-106
  }
  EXPECT_EQ(freed,
            (std::vector<mm::Pfn>{103, 106, 102, 105, 101, 104, 100}));
}

TEST(PageTable, RestoreReinstatesStateWithoutTheFrameClient) {
  std::uint64_t calls = 0;
  PageTable pt(FrameClient{[&]() -> mm::Pfn { return ++calls; },
                           [&](mm::Pfn) { ++calls; }});
  EXPECT_TRUE(pt.map(0x1000, 1));
  EXPECT_TRUE(pt.map(0x2000, 2));
  const PageTable::State captured = pt.state();
  EXPECT_EQ(pt.table_nodes(), 4u);  // The root counts.

  pt.unmap(0x1000);
  pt.unmap(0x2000);
  EXPECT_TRUE(pt.map(0x4000'0000'0000, 3));
  EXPECT_FALSE(pt.state() == captured);
  const std::uint64_t before = calls;
  pt.restore(captured);
  EXPECT_EQ(calls, before);
  EXPECT_TRUE(pt.state() == captured);
  EXPECT_EQ(pt.mapped_pages(), 2u);
  EXPECT_EQ(pt.find(0x2000)->pfn, 2u);
  EXPECT_EQ(pt.find(0x4000'0000'0000), nullptr);
}

TEST(PageTable, FrameClientAllocationFailurePropagates) {
  int budget = 2;  // root + one level, then fail
  FrameClient client{[&]() -> mm::Pfn {
                       if (budget-- <= 0) return mm::kInvalidPfn;
                       return 1;
                     },
                     [](mm::Pfn) {}};
  PageTable pt(std::move(client));
  EXPECT_FALSE(pt.map(0x1000, 5));
  EXPECT_EQ(pt.find(0x1000), nullptr);
  // The PUD was charged; the PMD that failed left no node behind.
  EXPECT_EQ(pt.table_nodes(), 2u);
}

TEST(PageTableDeathTest, MapOfInvalidPfnAborts) {
  PageTable pt;
  EXPECT_DEATH(pt.map(0x1000, mm::kInvalidPfn), "map of kInvalidPfn");
}

TEST(PageTable, RandomizedAgainstReferenceMap) {
  PageTable pt;
  std::map<VirtAddr, mm::Pfn> reference;
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const VirtAddr va = rng.uniform(1 << 16) * kPageSize;
    if (rng.bernoulli(0.6)) {
      if (reference.count(va) == 0) {
        const mm::Pfn pfn = rng.uniform(1 << 20);
        ASSERT_TRUE(pt.map(va, pfn));
        reference[va] = pfn;
      }
    } else {
      const auto got = pt.unmap(va);
      const auto it = reference.find(va);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
        reference.erase(it);
      }
    }
  }
  EXPECT_EQ(pt.mapped_pages(), reference.size());
  for (const auto& [va, pfn] : reference) {
    const Pte* pte = pt.find(va);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->pfn, pfn);
  }
}

}  // namespace
}  // namespace explframe::vm
