#include "dram/geometry.hpp"

#include <gtest/gtest.h>

namespace explframe::dram {
namespace {

TEST(Geometry, DefaultsAreConsistent) {
  Geometry g;
  EXPECT_EQ(g.total_banks(), 8u);
  EXPECT_EQ(g.total_rows(), 8u * 8192);
  EXPECT_EQ(g.total_bytes(), 8ull * 8192 * 8192);
}

TEST(Geometry, WithCapacityRoundTrips) {
  for (const std::uint64_t mib : {64ull, 128ull, 256ull, 512ull, 1024ull}) {
    const auto g = Geometry::with_capacity(mib * kMiB);
    EXPECT_EQ(g.total_bytes(), mib * kMiB) << mib;
    EXPECT_LE(g.rows_per_bank, 65536u);
  }
}

TEST(Geometry, WithCapacityLargeAddsRanks) {
  const auto g = Geometry::with_capacity(8 * kGiB);
  EXPECT_EQ(g.total_bytes(), 8 * kGiB);
  EXPECT_GT(g.ranks, 1u);
}

TEST(Geometry, FlatIndicesAreUniquePerRow) {
  Geometry g;
  g.channels = 2;
  g.ranks = 2;
  DramAddress a{1, 1, 7, 100, 0};
  DramAddress b{1, 1, 7, 101, 0};
  DramAddress c{0, 1, 7, 100, 0};
  EXPECT_EQ(flat_row(g, b), flat_row(g, a) + 1);
  EXPECT_NE(flat_row(g, a), flat_row(g, c));
  EXPECT_EQ(flat_bank(g, a), flat_bank(g, b));
}

}  // namespace
}  // namespace explframe::dram
