#include "fault/dfa_aes.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/rng.hpp"

namespace explframe::fault {
namespace {

using crypto::Aes128;

TEST(AesDfa, PositionsForColumnsPartitionTheState) {
  std::set<std::size_t> all;
  for (std::size_t c = 0; c < 4; ++c) {
    for (const auto p : AesDfa::positions_for_column(c)) {
      EXPECT_LT(p, 16u);
      EXPECT_TRUE(all.insert(p).second) << "position reused";
    }
  }
  EXPECT_EQ(all.size(), 16u);
}

TEST(AesDfa, PairWithWrongShapeRejected) {
  AesDfa dfa;
  Aes128::Block a{}, b{};
  EXPECT_FALSE(dfa.add_pair(a, b));  // identical: 0 diffs
  b[0] ^= 1;
  EXPECT_FALSE(dfa.add_pair(a, b));  // single byte diff
}

class DfaRecovery : public ::testing::Test {
 protected:
  DfaRecovery() : rng_(303) {
    rng_.fill_bytes(key_);
    rk_ = Aes128::expand_key(key_);
  }

  /// Generate one (correct, faulty) pair with a random fault in the given
  /// state byte at entry of round 9.
  std::pair<Aes128::Block, Aes128::Block> make_pair(std::size_t byte_index) {
    Aes128::Block pt;
    rng_.fill_bytes(pt);
    const auto mask =
        static_cast<std::uint8_t>(1 + rng_.uniform(255));
    return {Aes128::encrypt(pt, rk_),
            Aes128::encrypt_with_transient_fault(pt, rk_, 9, byte_index, mask)};
  }

  Rng rng_;
  Aes128::Key key_;
  Aes128::RoundKeys rk_;
};

TEST_F(DfaRecovery, FullKeyFromTwoPairsPerColumn) {
  AesDfa dfa;
  // Faults in bytes 0..3 of the round-9 state input cover, after ShiftRows,
  // all four MixColumns columns.
  for (int round = 0; round < 4; ++round) {
    for (std::size_t byte = 0; byte < 16; byte += 4) {
      // byte 0,4,8,12 are row 0 of each column; vary rows too.
      const auto [good, bad] = make_pair(byte + (round % 4));
      dfa.add_pair(good, bad);
    }
    if (dfa.recover_round10().has_value()) break;
  }
  const auto k10 = dfa.recover_round10();
  ASSERT_TRUE(k10.has_value());
  EXPECT_EQ(*k10, rk_[10]);
  EXPECT_EQ(Aes128::master_key_from_round10(*k10), key_);
}

TEST_F(DfaRecovery, PairsCountedPerColumn) {
  AesDfa dfa;
  const auto [g0, b0] = make_pair(0);  // lands in some column c0
  ASSERT_TRUE(dfa.add_pair(g0, b0));
  std::size_t total = 0;
  for (std::size_t c = 0; c < 4; ++c) total += dfa.pairs_for_column(c);
  EXPECT_EQ(total, 1u);
}

}  // namespace
}  // namespace explframe::fault
