#include "crypto/aes128_ttable.hpp"

#include <gtest/gtest.h>

#include "reference_ciphers.hpp"
#include "support/rng.hpp"

namespace explframe::crypto {
namespace {

TEST(Aes128T, MatchesReferenceOnFipsVector) {
  const Aes128::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const Aes128::Block pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                            0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const auto rk = Aes128::expand_key(key);
  EXPECT_EQ(reference::aes_ttable_encrypt(pt, rk), Aes128::encrypt(pt, rk));
}

TEST(Aes128T, MatchesReferenceOnRandomInputs) {
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    Aes128::Key key;
    Aes128::Block pt;
    rng.fill_bytes(key);
    rng.fill_bytes(pt);
    const auto rk = Aes128::expand_key(key);
    EXPECT_EQ(reference::aes_ttable_encrypt(pt, rk), Aes128::encrypt(pt, rk));
  }
}

TEST(Aes128T, TablesDerivedFromFaultySboxMatchGenericPath) {
  // A faulted S-box propagated into the T-tables must produce exactly the
  // same ciphertexts as the byte-wise implementation using that S-box.
  Rng rng(32);
  auto faulty = Aes128::sbox();
  faulty[0x3c] ^= 0x20;
  const auto tables = Aes128T::derive_tables(faulty);
  for (int i = 0; i < 100; ++i) {
    Aes128::Key key;
    Aes128::Block pt;
    rng.fill_bytes(key);
    rng.fill_bytes(pt);
    const auto rk = Aes128::expand_key(key);
    EXPECT_EQ(
        Aes128T::encrypt(pt, rk, tables,
                         std::span<const std::uint8_t, 256>(faulty)),
        Aes128::encrypt_with_sbox(pt, rk,
                                  std::span<const std::uint8_t, 256>(faulty)));
  }
}

TEST(Aes128T, TableStructureInvariants) {
  const auto& t = reference::aes_canonical_tables();
  const auto& sbox = Aes128::sbox();
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = sbox[i];
    const std::uint8_t s2 = Aes128::gmul(s, 2);
    const std::uint8_t s3 = Aes128::gmul(s, 3);
    // Te0 row structure (2S, S, S, 3S).
    EXPECT_EQ(t.te0[i] >> 24, s2);
    EXPECT_EQ((t.te0[i] >> 16) & 0xFF, s);
    EXPECT_EQ((t.te0[i] >> 8) & 0xFF, s);
    EXPECT_EQ(t.te0[i] & 0xFF, s3);
    // Te1..Te3 are byte rotations of Te0.
    const auto ror8 = [](std::uint32_t w) {
      return (w >> 8) | (w << 24);
    };
    EXPECT_EQ(t.te1[i], ror8(t.te0[i]));
    EXPECT_EQ(t.te2[i], ror8(t.te1[i]));
    EXPECT_EQ(t.te3[i], ror8(t.te2[i]));
  }
}

TEST(Aes128T, TablesFillExactlyOnePage) {
  // The paper-relevant size fact: Te0..Te3 together are 4 KiB — one frame.
  EXPECT_EQ(sizeof(Aes128T::Tables), 4096u);
}

TEST(Aes128T, SingleTableBitFlipCorruptsCiphertexts) {
  Rng rng(33);
  Aes128::Key key;
  rng.fill_bytes(key);
  const auto rk = Aes128::expand_key(key);
  auto tables = reference::aes_canonical_tables();
  tables.te0[0x11] ^= 0x00000100;  // one bit in one table word
  int diffs = 0;
  for (int i = 0; i < 64; ++i) {
    Aes128::Block pt;
    rng.fill_bytes(pt);
    if (Aes128T::encrypt(pt, rk, tables, Aes128::sbox()) !=
        Aes128::encrypt(pt, rk))
      ++diffs;
  }
  // 36 Te0 lookups per encryption hit index 0x11 with p ~ 1-(255/256)^36.
  EXPECT_GT(diffs, 2);
}

}  // namespace
}  // namespace explframe::crypto
