#include "crypto/present80.hpp"

#include <gtest/gtest.h>

#include "reference_ciphers.hpp"
#include "support/rng.hpp"

namespace explframe::crypto {
namespace {

using Key = Present80::Key;

/// The full 80-bit round-32 register of `key`'s schedule, written straight
/// from the PRESENT specification (expand_key keeps only its top 64 bits).
__uint128_t round32_register(const Key& key) {
  const __uint128_t mask80 = (static_cast<__uint128_t>(1) << 80) - 1;
  __uint128_t reg = 0;
  for (const std::uint8_t b : key) reg = (reg << 8) | b;
  for (std::uint32_t round = 1; round <= 31; ++round) {
    reg = ((reg << 61) | (reg >> 19)) & mask80;
    const auto top = static_cast<std::size_t>((reg >> 76) & 0xF);
    reg = (reg & ~(static_cast<__uint128_t>(0xF) << 76)) |
          (static_cast<__uint128_t>(Present80::sbox()[top]) << 76);
    reg ^= static_cast<__uint128_t>(round) << 15;
  }
  return reg;
}

// Test vectors from the PRESENT paper (Bogdanov et al., CHES 2007).
TEST(Present80, PaperVectorAllZero) {
  const Key key{};  // 00...0
  const auto rk = Present80::expand_key(key);
  EXPECT_EQ(reference::present_encrypt(0x0000000000000000ULL, rk),
            0x5579C1387B228445ULL);
}

TEST(Present80, PaperVectorZeroKeyOnesPlain) {
  const Key key{};
  const auto rk = Present80::expand_key(key);
  EXPECT_EQ(reference::present_encrypt(0xFFFFFFFFFFFFFFFFULL, rk),
            0xA112FFC72F68417BULL);
}

TEST(Present80, PaperVectorOnesKeyZeroPlain) {
  Key key;
  key.fill(0xFF);
  const auto rk = Present80::expand_key(key);
  EXPECT_EQ(reference::present_encrypt(0x0000000000000000ULL, rk),
            0xE72C46C0F5945049ULL);
}

TEST(Present80, PaperVectorOnesEverything) {
  Key key;
  key.fill(0xFF);
  const auto rk = Present80::expand_key(key);
  EXPECT_EQ(reference::present_encrypt(0xFFFFFFFFFFFFFFFFULL, rk),
            0x3333DCD3213210D2ULL);
}

TEST(Present80, DecryptInvertsEncrypt) {
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    Key key;
    rng.fill_bytes(key);
    const auto rk = Present80::expand_key(key);
    const std::uint64_t pt = rng.next();
    EXPECT_EQ(
        reference::present_decrypt(reference::present_encrypt(pt, rk), rk),
        pt);
  }
}

TEST(Present80, PLayerRoundTrips) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next();
    EXPECT_EQ(Present80::p_layer_inv(Present80::p_layer(v)), v);
    EXPECT_EQ(Present80::p_layer(Present80::p_layer_inv(v)), v);
  }
}

TEST(Present80, PLayerIsLinearOverXor) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    EXPECT_EQ(Present80::p_layer(a ^ b),
              Present80::p_layer(a) ^ Present80::p_layer(b));
  }
}

TEST(Present80, SboxIsBijective) {
  const auto& sbox = Present80::sbox();
  const auto& inv = reference::present_inv_sbox();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(inv[sbox[i]], i);
    EXPECT_EQ(sbox[inv[i]], i);
  }
}

TEST(Present80, EncryptWithCanonicalSboxMatches) {
  Rng rng(12);
  Key key;
  rng.fill_bytes(key);
  const auto rk = Present80::expand_key(key);
  const std::uint64_t pt = rng.next();
  EXPECT_EQ(Present80::encrypt_with_sbox(pt, rk, Present80::sbox()),
            reference::present_encrypt(pt, rk));
}

TEST(Present80, FaultySboxChangesCiphertext) {
  Rng rng(13);
  Key key;
  rng.fill_bytes(key);
  const auto rk = Present80::expand_key(key);
  auto faulty = Present80::sbox();
  faulty[5] ^= 0x4;
  int diffs = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t pt = rng.next();
    if (Present80::encrypt_with_sbox(pt, rk, faulty) !=
        reference::present_encrypt(pt, rk))
      ++diffs;
  }
  EXPECT_GT(diffs, 60);  // 31 rounds x 16 nibbles: almost always hit
}

TEST(Present80, RoundKeysDiffer) {
  Key key;
  key.fill(0x12);
  const auto rk = Present80::expand_key(key);
  EXPECT_NE(rk[0], rk[1]);
  EXPECT_NE(rk[30], rk[31]);
}

TEST(Present80, InverseScheduleWalkReproducesExpandKey) {
  // From a random master key's round-32 register, the backward walk must
  // land on that key and have written exactly expand_key's round keys.
  Rng rng(78);
  for (int i = 0; i < 2000; ++i) {
    Key key;
    rng.fill_bytes(key);
    if (i == 0) key.fill(0x00);
    if (i == 1) key.fill(0xFF);
    const __uint128_t reg32 = round32_register(key);
    const auto expanded = Present80::expand_key(key);
    ASSERT_EQ(static_cast<std::uint64_t>(reg32 >> 16), expanded[31]);
    Present80::RoundKeys rk{};
    const Key walked = Present80::invert_key_schedule(
        static_cast<std::uint64_t>(reg32 >> 16),
        static_cast<std::uint16_t>(reg32), rk);
    ASSERT_EQ(walked, key) << "key " << i;
    ASSERT_EQ(rk, expanded) << "key " << i;
  }
}

TEST(Present80, InverseScheduleWalkIsABijectionOnRegisters) {
  // The other direction: any round-32 register walks back to a key whose
  // forward schedule ends on that register — including both extremes of
  // the 16 low bits the residual key search enumerates.
  Rng rng(79);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k32 = rng.next();
    const auto low = static_cast<std::uint16_t>(
        i == 0 ? 0x0000 : i == 1 ? 0xFFFF : rng.uniform(1u << 16));
    Present80::RoundKeys rk{};
    const Key key = Present80::invert_key_schedule(k32, low, rk);
    const __uint128_t reg32 = round32_register(key);
    ASSERT_EQ(static_cast<std::uint64_t>(reg32 >> 16), k32);
    ASSERT_EQ(static_cast<std::uint16_t>(reg32), low);
    ASSERT_EQ(rk, Present80::expand_key(key));
  }
}

TEST(Present80, SpTablesMatchSboxPathOnCanonicalAndFaultyTables) {
  // The combined sBoxLayer+pLayer tables (the batch path's round kernel)
  // must reproduce encrypt_with_sbox bit for bit, canonical or faulted.
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    auto table = Present80::sbox();
    if (trial > 0) {
      table[rng.uniform(16)] ^= static_cast<std::uint8_t>(1 + rng.uniform(15));
    }
    const std::span<const std::uint8_t, 16> tspan(table);
    const auto sp = Present80::derive_sp_tables(tspan);
    Key key;
    rng.fill_bytes(key);
    const auto rk = Present80::expand_key(key);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t pt = rng.next();
      EXPECT_EQ(Present80::encrypt_with_sp(pt, rk, sp),
                Present80::encrypt_with_sbox(pt, rk, tspan))
          << "trial " << trial;
    }
  }
}

TEST(Present80, SpTablesIgnoreDeadHighNibbles) {
  // Stored table entries carry a dead high nibble; SP derivation must mask
  // exactly like sbox_layer's on-use masking.
  auto dirty = Present80::sbox();
  for (auto& b : dirty) b |= 0xA0;
  const auto sp_dirty =
      Present80::derive_sp_tables(std::span<const std::uint8_t, 16>(dirty));
  const auto sp_clean = Present80::derive_sp_tables(
      std::span<const std::uint8_t, 16>(Present80::sbox()));
  EXPECT_EQ(sp_dirty, sp_clean);
}

}  // namespace
}  // namespace explframe::crypto
