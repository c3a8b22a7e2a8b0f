#include "vm/address_space.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace explframe::vm {
namespace {

TEST(AddressSpace, MmapReturnsPageAlignedGrowingAddresses) {
  AddressSpace space;
  const VirtAddr a = space.mmap(1);        // rounds to one page
  const VirtAddr b = space.mmap(10000);    // rounds to 3 pages
  EXPECT_EQ(a % kPageSize, 0u);
  EXPECT_EQ(b % kPageSize, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(space.vmas().size(), 2u);
  EXPECT_EQ(space.counters().mmap_calls, 2u);
}

TEST(AddressSpace, ValidInsideVmaOnly) {
  AddressSpace space;
  const VirtAddr a = space.mmap(2 * kPageSize);
  EXPECT_TRUE(space.valid(a));
  EXPECT_TRUE(space.valid(a + 2 * kPageSize - 1));
  EXPECT_FALSE(space.valid(a + 2 * kPageSize));
  EXPECT_FALSE(space.valid(a - 1));
}

TEST(AddressSpace, MunmapWholeRegionReleasesMappedPages) {
  AddressSpace space;
  const VirtAddr a = space.mmap(3 * kPageSize);
  space.page_table().map(a, 100);
  space.page_table().map(a + kPageSize, 101);
  // Third page never touched: no frame to release.
  std::vector<mm::Pfn> released;
  EXPECT_TRUE(space.munmap(a, 3 * kPageSize,
                           [&](mm::Pfn p) { released.push_back(p); }));
  EXPECT_EQ(released, (std::vector<mm::Pfn>{100, 101}));
  EXPECT_TRUE(space.vmas().empty());
  EXPECT_FALSE(space.valid(a));
}

TEST(AddressSpace, MunmapSinglePageSplitsVma) {
  AddressSpace space;
  const VirtAddr a = space.mmap(4 * kPageSize);
  space.page_table().map(a + kPageSize, 7);
  std::vector<mm::Pfn> released;
  EXPECT_TRUE(space.munmap(a + kPageSize, kPageSize,
                           [&](mm::Pfn p) { released.push_back(p); }));
  EXPECT_EQ(released, (std::vector<mm::Pfn>{7}));
  // VMA split into [a, a+4K) and [a+8K, a+16K).
  EXPECT_EQ(space.vmas().size(), 2u);
  EXPECT_TRUE(space.valid(a));
  EXPECT_FALSE(space.valid(a + kPageSize));
  EXPECT_TRUE(space.valid(a + 2 * kPageSize));
}

TEST(AddressSpace, MunmapHeadAndTailTrim) {
  AddressSpace space;
  const VirtAddr a = space.mmap(4 * kPageSize);
  EXPECT_TRUE(space.munmap(a, kPageSize, [](mm::Pfn) {}));
  EXPECT_FALSE(space.valid(a));
  EXPECT_TRUE(space.valid(a + kPageSize));
  EXPECT_TRUE(space.munmap(a + 3 * kPageSize, kPageSize, [](mm::Pfn) {}));
  EXPECT_TRUE(space.valid(a + 2 * kPageSize));
  EXPECT_FALSE(space.valid(a + 3 * kPageSize));
}

TEST(AddressSpace, MunmapOutsideAnyVmaReturnsFalse) {
  AddressSpace space;
  space.mmap(kPageSize);
  EXPECT_FALSE(space.munmap(0x1000, kPageSize, [](mm::Pfn) {}));
}

TEST(AddressSpace, MunmapSpanningTwoVmas) {
  AddressSpace space;
  const VirtAddr a = space.mmap(2 * kPageSize);
  const VirtAddr b = space.mmap(2 * kPageSize);
  // Regions are separated by a guard page; unmap a range covering both.
  EXPECT_TRUE(space.munmap(a, b + 2 * kPageSize - a, [](mm::Pfn) {}));
  EXPECT_TRUE(space.vmas().empty());
}

}  // namespace
}  // namespace explframe::vm
