#include "crypto/aes128.hpp"

#include <gtest/gtest.h>

#include "reference_ciphers.hpp"
#include "support/rng.hpp"

namespace explframe::crypto {
namespace {

using Block = Aes128::Block;
using Key = Aes128::Key;

// FIPS-197 Appendix B.
constexpr Key kFipsKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
constexpr Block kFipsPlain = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                              0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
constexpr Block kFipsCipher = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                               0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};

// FIPS-197 Appendix C.1.
constexpr Key kAppCKey = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
constexpr Block kAppCPlain = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                              0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
constexpr Block kAppCCipher = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                               0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};

TEST(Aes128, Fips197AppendixB) {
  const auto rk = Aes128::expand_key(kFipsKey);
  EXPECT_EQ(Aes128::encrypt(kFipsPlain, rk), kFipsCipher);
}

TEST(Aes128, Fips197AppendixC1) {
  const auto rk = Aes128::expand_key(kAppCKey);
  EXPECT_EQ(Aes128::encrypt(kAppCPlain, rk), kAppCCipher);
}

TEST(Aes128, DecryptInvertsEncrypt) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Key key;
    Block pt;
    rng.fill_bytes(key);
    rng.fill_bytes(pt);
    const auto rk = Aes128::expand_key(key);
    EXPECT_EQ(reference::aes_decrypt(Aes128::encrypt(pt, rk), rk), pt);
  }
}

TEST(Aes128, KeyScheduleFirstAndLastWords) {
  // FIPS-197 Appendix A.1 expansion of kFipsKey.
  const auto rk = Aes128::expand_key(kFipsKey);
  EXPECT_EQ(rk[0], kFipsKey);
  const Aes128::RoundKey k10 = {0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89,
                                0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63, 0x0c, 0xa6};
  EXPECT_EQ(rk[10], k10);
}

TEST(Aes128, MasterKeyFromRound10RoundTrips) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    Key key;
    rng.fill_bytes(key);
    const auto rk = Aes128::expand_key(key);
    EXPECT_EQ(Aes128::master_key_from_round10(rk[10]), key);
  }
}

TEST(Aes128, SboxIsBijective) {
  const auto& sbox = Aes128::sbox();
  const auto& inv = Aes128::inv_sbox();
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(inv[sbox[i]], i);
    EXPECT_EQ(sbox[inv[i]], i);
  }
}

TEST(Aes128, EncryptWithCanonicalSboxMatchesEncrypt) {
  Rng rng(3);
  Key key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  const auto rk = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::encrypt_with_sbox(pt, rk, Aes128::sbox()),
            Aes128::encrypt(pt, rk));
}

TEST(Aes128, FaultySboxChangesCiphertext) {
  Rng rng(4);
  Key key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  const auto rk = Aes128::expand_key(key);
  auto faulty = Aes128::sbox();
  faulty[0x42] ^= 0x10;
  int diffs = 0;
  for (int i = 0; i < 64; ++i) {
    rng.fill_bytes(pt);
    if (Aes128::encrypt_with_sbox(pt, rk, faulty) != Aes128::encrypt(pt, rk))
      ++diffs;
  }
  // 160 S-box lookups per encryption hit one specific entry with
  // probability 1-(255/256)^160 ~ 0.47.
  EXPECT_GT(diffs, 15);
  EXPECT_LT(diffs, 50);
}

TEST(Aes128, TransientFaultRound9TouchesExactlyOneColumn) {
  Rng rng(5);
  Key key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  const auto rk = Aes128::expand_key(key);
  const Block good = Aes128::encrypt(pt, rk);
  const Block bad = Aes128::encrypt_with_transient_fault(pt, rk, 9, 5, 0x80);
  int diffs = 0;
  for (int i = 0; i < 16; ++i)
    if (good[i] != bad[i]) ++diffs;
  EXPECT_EQ(diffs, 4);  // one MixColumns column, scattered by ShiftRows
}

TEST(Aes128, TransientFaultRound1AvalanchesEverywhere) {
  Rng rng(6);
  Key key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  const auto rk = Aes128::expand_key(key);
  const Block good = Aes128::encrypt(pt, rk);
  const Block bad = Aes128::encrypt_with_transient_fault(pt, rk, 1, 0, 0x01);
  int diffs = 0;
  for (int i = 0; i < 16; ++i)
    if (good[i] != bad[i]) ++diffs;
  EXPECT_GE(diffs, 14);
}

TEST(Aes128, ZeroMaskTransientFaultIsIdentity) {
  Rng rng(7);
  Key key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  const auto rk = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::encrypt_with_transient_fault(pt, rk, 9, 3, 0x00),
            Aes128::encrypt(pt, rk));
}

TEST(Aes128, GmulKnownValues) {
  EXPECT_EQ(Aes128::gmul(0x57, 0x13), 0xfe);  // FIPS-197 §4.2.1 example
  EXPECT_EQ(Aes128::gmul(0x57, 0x02), 0xae);
  EXPECT_EQ(Aes128::gmul(0x01, 0xab), 0xab);
  EXPECT_EQ(Aes128::gmul(0x00, 0xab), 0x00);
}

TEST(Aes128, XtimeMatchesGmulBy2) {
  for (int x = 0; x < 256; ++x) {
    EXPECT_EQ(Aes128::xtime(static_cast<std::uint8_t>(x)),
              Aes128::gmul(static_cast<std::uint8_t>(x), 2));
  }
}

}  // namespace
}  // namespace explframe::crypto
