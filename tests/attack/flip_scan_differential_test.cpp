// Differential proof for attack::scan_flips, the word-wise readback scan
// shared by probe_row and the random-pairs rescan: against the byte-wise
// loop it replaced (kept here as the oracle), on synthetic rows, it must
// emit the same flip records in the same (offset, bit) order.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "attack/templating.hpp"
#include "support/rng.hpp"

namespace explframe::attack {
namespace {

constexpr vm::VirtAddr kBase = 0x7f0000000000ULL;
constexpr vm::VirtAddr kAggLo = kBase - 0x10000;
constexpr vm::VirtAddr kAggHi = kBase + 0x10000;

std::vector<FlipRecord> reference_scan(const std::vector<std::uint8_t>& data,
                                       std::uint8_t pattern) {
  std::vector<FlipRecord> out;
  for (std::size_t off = 0; off < data.size(); ++off) {
    const auto delta = static_cast<std::uint8_t>(data[off] ^ pattern);
    if (delta == 0) continue;
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      if (((delta >> bit) & 1u) == 0) continue;
      FlipRecord rec;
      rec.page_va = kBase + (off / kPageSize) * kPageSize;
      rec.offset = static_cast<std::uint32_t>(off % kPageSize);
      rec.bit = bit;
      rec.to_one = ((data[off] >> bit) & 1u) != 0;
      rec.aggressor_lo = kAggLo;
      rec.aggressor_hi = kAggHi;
      out.push_back(rec);
    }
  }
  return out;
}

std::vector<FlipRecord> word_scan(const std::vector<std::uint8_t>& data,
                                  std::uint8_t pattern) {
  // Records are appended: pre-existing entries must survive untouched.
  std::vector<FlipRecord> out(1);
  scan_flips(data, pattern, kBase, kAggLo, kAggHi, out);
  EXPECT_EQ(out.front(), FlipRecord{});
  out.erase(out.begin());
  return out;
}

/// A `pattern`-filled row of `size` bytes with the given bits flipped.
std::vector<std::uint8_t> row(
    std::size_t size, std::uint8_t pattern,
    std::initializer_list<std::pair<std::size_t, int>> flips) {
  std::vector<std::uint8_t> data(size, pattern);
  for (const auto& [off, bit] : flips)
    data[off] = static_cast<std::uint8_t>(data[off] ^ (1u << bit));
  return data;
}

void expect_same(const std::vector<std::uint8_t>& data, std::uint8_t pattern,
                 std::size_t expected_flips) {
  const auto want = reference_scan(data, pattern);
  ASSERT_EQ(want.size(), expected_flips);
  EXPECT_EQ(word_scan(data, pattern), want);
}

constexpr std::size_t kRow = 8192;

class FlipScan : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(FlipScan, CleanRow) {
  expect_same(row(kRow, GetParam(), {}), GetParam(), 0);
}

TEST_P(FlipScan, FirstAndLastByte) {
  expect_same(row(kRow, GetParam(), {{0, 0}, {kRow - 1, 7}}), GetParam(), 2);
}

TEST_P(FlipScan, SeveralBitsInOneByte) {
  expect_same(row(kRow, GetParam(), {{4097, 1}, {4097, 3}, {4097, 6}}),
              GetParam(), 3);
}

TEST_P(FlipScan, AdjacentWords) {
  // Last byte of one word, first byte of the next, and one across a page.
  expect_same(
      row(kRow, GetParam(), {{15, 2}, {16, 5}, {4095, 0}, {4096, 7}}),
      GetParam(), 4);
}

TEST_P(FlipScan, LengthNotAMultipleOfEight) {
  for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{13}, kRow + 5}) {
    expect_same(row(size, GetParam(), {{0, 4}, {size - 1, 1}}), GetParam(),
                2);
    expect_same(row(size, GetParam(), {}), GetParam(), 0);
  }
  expect_same({}, GetParam(), 0);
}

TEST_P(FlipScan, RandomSparseRows) {
  Rng rng(1205 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(kRow + rng.uniform(8), GetParam());
    const std::uint64_t n = rng.uniform(12);
    for (std::uint64_t i = 0; i < n; ++i)
      data[rng.uniform(data.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_EQ(word_scan(data, GetParam()), reference_scan(data, GetParam()))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, FlipScan,
                         ::testing::Values(std::uint8_t{0xFF},
                                           std::uint8_t{0x00}));

}  // namespace
}  // namespace explframe::attack
