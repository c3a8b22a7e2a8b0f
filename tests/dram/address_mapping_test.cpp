#include "dram/address_mapping.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace explframe::dram {
namespace {

class AddressMappingRoundTrip
    : public ::testing::TestWithParam<MappingScheme> {};

TEST_P(AddressMappingRoundTrip, DecodeEncodeIsIdentity) {
  Geometry g;
  g.channels = 2;
  g.ranks = 2;
  g.rows_per_bank = 1024;
  AddressMapping map(g, GetParam());
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const PhysAddr a = rng.uniform(g.total_bytes());
    const DramAddress c = map.decode(a);
    EXPECT_EQ(map.encode(c), a);
    EXPECT_LT(c.channel, g.channels);
    EXPECT_LT(c.rank, g.ranks);
    EXPECT_LT(c.bank, g.banks);
    EXPECT_LT(c.row, g.rows_per_bank);
    EXPECT_LT(c.col, g.row_bytes);
  }
}

TEST_P(AddressMappingRoundTrip, EncodeDecodeIsIdentity) {
  Geometry g;
  AddressMapping map(g, GetParam());
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    DramAddress c;
    c.bank = static_cast<std::uint32_t>(rng.uniform(g.banks));
    c.row = static_cast<std::uint32_t>(rng.uniform(g.rows_per_bank));
    c.col = static_cast<std::uint32_t>(rng.uniform(g.row_bytes));
    EXPECT_EQ(map.decode(map.encode(c)), c);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AddressMappingRoundTrip,
                         ::testing::Values(MappingScheme::kRowMajor,
                                           MappingScheme::kBankXor));

TEST(AddressMapping, RowMajorKeepsPageInOneRow) {
  Geometry g;  // 8 KiB rows
  AddressMapping map(g, MappingScheme::kRowMajor);
  // Any aligned 4 KiB page must decode to a single (bank, row).
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr page = rng.uniform(g.total_bytes() / kPageSize) * kPageSize;
    const DramAddress first = map.decode(page);
    const DramAddress last = map.decode(page + kPageSize - 1);
    EXPECT_EQ(first.bank, last.bank);
    EXPECT_EQ(first.row, last.row);
  }
}

TEST(AddressMapping, RowMajorConsecutiveRowsAreRowSizeApart) {
  Geometry g;
  AddressMapping map(g, MappingScheme::kRowMajor);
  const PhysAddr a = 0;
  PhysAddr up = 0;
  ASSERT_TRUE(map.neighbor_row_addr(a, +1, 0, up));
  const DramAddress ca = map.decode(a);
  const DramAddress cu = map.decode(up);
  EXPECT_EQ(cu.row, ca.row + 1);
  EXPECT_EQ(cu.channel, ca.channel);
  EXPECT_EQ(cu.rank, ca.rank);
  EXPECT_EQ(cu.bank, ca.bank);
}

TEST(AddressMapping, NeighborRowOutOfRange) {
  Geometry g;
  AddressMapping map(g, MappingScheme::kRowMajor);
  DramAddress top{0, 0, 0, 0, 0};
  PhysAddr out = 0;
  EXPECT_FALSE(map.neighbor_row_addr(map.encode(top), -1, 0, out));
  DramAddress bottom{0, 0, 0, g.rows_per_bank - 1, 0};
  EXPECT_FALSE(map.neighbor_row_addr(map.encode(bottom), +1, 0, out));
  EXPECT_TRUE(map.neighbor_row_addr(map.encode(bottom), -1, 0, out));
}

TEST(AddressMapping, BankXorChangesBankAcrossRows) {
  Geometry g;
  AddressMapping map(g, MappingScheme::kBankXor);
  // With XOR hashing, physically consecutive row-size blocks usually land
  // in different banks for consecutive row indices.
  int changed = 0;
  for (std::uint32_t r = 0; r + 1 < 64; ++r) {
    DramAddress a{0, 0, 0, r, 0};
    DramAddress b{0, 0, 0, r + 1, 0};
    if (map.encode(a) / g.row_bytes % g.banks !=
        map.encode(b) / g.row_bytes % g.banks) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
}

}  // namespace
}  // namespace explframe::dram
