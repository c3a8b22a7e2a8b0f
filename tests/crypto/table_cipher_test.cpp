// crypto::TableCipher adapters: shape metadata, live-bit masks, usable-flip
// polarity, and agreement of make_context + encrypt_batch with the
// reference cipher implementations (Aes128::encrypt_with_sbox,
// Present80::encrypt / encrypt_with_sbox) over canonical, faulted and
// dead-bit tables.
#include "crypto/table_cipher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "reference_ciphers.hpp"
#include "crypto/aes128.hpp"
#include "crypto/present80.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace explframe::crypto {
namespace {

TEST(TableCipher, AesShapes) {
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  EXPECT_EQ(aes.kind(), CipherKind::kAes128);
  EXPECT_EQ(aes.table_size(), 256u);
  EXPECT_EQ(aes.key_size(), 16u);
  EXPECT_EQ(aes.block_size(), 16u);
  EXPECT_EQ(aes.round_key_size(), 11u * 16u);
  EXPECT_EQ(aes.live_bits(0), 0xFF);
  EXPECT_TRUE(std::equal(aes.canonical_table().begin(),
                         aes.canonical_table().end(),
                         Aes128::sbox().begin()));
}

TEST(TableCipher, PresentShapes) {
  const TableCipher& present = cipher_for(CipherKind::kPresent80);
  EXPECT_EQ(present.kind(), CipherKind::kPresent80);
  EXPECT_EQ(present.table_size(), 16u);
  EXPECT_EQ(present.key_size(), 10u);
  EXPECT_EQ(present.block_size(), 8u);
  EXPECT_EQ(present.round_key_size(), 32u * 8u);
  EXPECT_EQ(present.live_bits(3), 0x0F);
}

/// Serialized round keys for `key` through the adapter's expand_key.
std::vector<std::uint8_t> expanded(const TableCipher& cipher,
                                   const std::vector<std::uint8_t>& key) {
  std::vector<std::uint8_t> rk(cipher.round_key_size());
  cipher.expand_key(key, rk);
  return rk;
}

/// The adapter's only encryption entry: one context, one batch.
std::vector<std::uint8_t> batch_encrypt(const TableCipher& cipher,
                                        std::span<const std::uint8_t> rk,
                                        std::span<const std::uint8_t> table,
                                        std::span<const std::uint8_t> pts) {
  std::vector<std::uint8_t> cts(pts.size());
  cipher.encrypt_batch(*cipher.make_context(rk, table), pts, cts);
  return cts;
}

/// Reference stream: every block through the cipher's reference primitive,
/// with round keys from its own key schedule (not the adapter's blob) and
/// PRESENT reading only the live low nibble of each stored byte.
std::vector<std::uint8_t> reference_encrypt(
    CipherKind kind, const std::vector<std::uint8_t>& key,
    std::span<const std::uint8_t> table, std::span<const std::uint8_t> pts) {
  std::vector<std::uint8_t> cts(pts.size());
  if (kind == CipherKind::kAes128) {
    Aes128::Key k{};
    std::copy(key.begin(), key.end(), k.begin());
    const auto rk = Aes128::expand_key(k);
    const std::span<const std::uint8_t, 256> sbox(table.data(), 256);
    for (std::size_t off = 0; off < pts.size(); off += 16) {
      Aes128::Block pt;
      std::copy_n(pts.begin() + off, 16, pt.begin());
      const Aes128::Block ct = Aes128::encrypt_with_sbox(pt, rk, sbox);
      std::copy(ct.begin(), ct.end(), cts.begin() + off);
    }
    return cts;
  }
  Present80::Key k{};
  std::copy(key.begin(), key.end(), k.begin());
  const auto rk = Present80::expand_key(k);
  std::array<std::uint8_t, 16> nibbles{};
  for (std::size_t i = 0; i < 16; ++i)
    nibbles[i] = static_cast<std::uint8_t>(table[i] & 0xF);
  for (std::size_t off = 0; off < pts.size(); off += 8) {
    const std::uint64_t ct = Present80::encrypt_with_sbox(
        le_bytes_to_u64(pts.subspan(off, 8)), rk,
        std::span<const std::uint8_t, 16>(nibbles));
    u64_to_le_bytes(ct, std::span(cts).subspan(off, 8));
  }
  return cts;
}

TEST(TableCipher, AesBatchMatchesReference) {
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  Rng rng(11);
  const auto key = random_key(aes, rng.next());
  Aes128::Key ref_key{};
  std::copy(key.begin(), key.end(), ref_key.begin());
  const auto ref_rk = Aes128::expand_key(ref_key);

  std::vector<std::uint8_t> pts(8 * 16);
  rng.fill_bytes(pts);
  const auto cts =
      batch_encrypt(aes, expanded(aes, key), aes.canonical_table(), pts);
  for (std::size_t off = 0; off < pts.size(); off += 16) {
    Aes128::Block pt;
    std::copy_n(pts.begin() + off, 16, pt.begin());
    const Aes128::Block ref_ct = Aes128::encrypt(pt, ref_rk);
    EXPECT_TRUE(std::equal(ref_ct.begin(), ref_ct.end(), cts.begin() + off));
  }
}

TEST(TableCipher, PresentBatchMatchesReferenceAndIgnoresDeadBits) {
  const TableCipher& present = cipher_for(CipherKind::kPresent80);
  Rng rng(12);
  const auto key = random_key(present, rng.next());
  Present80::Key ref_key{};
  std::copy(key.begin(), key.end(), ref_key.begin());
  const auto ref_rk = Present80::expand_key(ref_key);

  // A table with garbage in the dead high nibbles must encrypt identically
  // to the canonical table.
  std::vector<std::uint8_t> dirty(present.canonical_table().begin(),
                                  present.canonical_table().end());
  for (auto& b : dirty) b |= 0xA0;

  std::vector<std::uint8_t> pts(8 * 8);
  rng.fill_bytes(pts);
  const auto cts = batch_encrypt(present, expanded(present, key), dirty, pts);
  for (std::size_t off = 0; off < pts.size(); off += 8) {
    const std::uint64_t pt = le_bytes_to_u64(std::span(pts).subspan(off, 8));
    EXPECT_EQ(le_bytes_to_u64(std::span(cts).subspan(off, 8)),
              reference::present_encrypt(pt, ref_rk));
  }
}

TEST(TableCipher, FaultyTableChangesCiphertext) {
  for (const CipherKind kind : {CipherKind::kAes128, CipherKind::kPresent80}) {
    const TableCipher& cipher = cipher_for(kind);
    Rng rng(13);
    const auto key = random_key(cipher, rng.next());
    const auto rk = expanded(cipher, key);

    std::vector<std::uint8_t> faulty(cipher.canonical_table().begin(),
                                     cipher.canonical_table().end());
    faulty[5] ^= 0x01;  // a live bit in both ciphers

    // A persistent table fault must surface in at least one of a handful of
    // random blocks (overwhelmingly all of them for AES).
    std::vector<std::uint8_t> pts(8 * cipher.block_size());
    rng.fill_bytes(pts);
    EXPECT_NE(batch_encrypt(cipher, rk, cipher.canonical_table(), pts),
              batch_encrypt(cipher, rk, faulty, pts))
        << to_string(kind);
  }
}

TEST(TableCipher, UsableFlipPolarity) {
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  // Aes sbox[0] = 0x63 = 0110'0011: bit 0 set, bit 2 clear.
  EXPECT_TRUE(aes.usable_flip(0, 0, /*to_one=*/false));   // 1 -> 0 on a set bit
  EXPECT_FALSE(aes.usable_flip(0, 0, /*to_one=*/true));   // anti cell, bit set
  EXPECT_TRUE(aes.usable_flip(0, 2, /*to_one=*/true));    // 0 -> 1 on clear bit
  EXPECT_FALSE(aes.usable_flip(0, 2, /*to_one=*/false));
  EXPECT_FALSE(aes.usable_flip(256, 0, false));  // out of window

  const TableCipher& present = cipher_for(CipherKind::kPresent80);
  // High-nibble bits are dead: never usable regardless of polarity.
  for (std::uint8_t bit = 4; bit < 8; ++bit) {
    EXPECT_FALSE(present.usable_flip(0, bit, true));
    EXPECT_FALSE(present.usable_flip(0, bit, false));
  }
  // Present sbox[0] = 0xC = 1100: bit 2 set, bit 0 clear.
  EXPECT_TRUE(present.usable_flip(0, 2, /*to_one=*/false));
  EXPECT_TRUE(present.usable_flip(0, 0, /*to_one=*/true));
}

TEST(TableCipher, RandomKeyIsDeterministicPerSeed) {
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  EXPECT_EQ(random_key(aes, 1), random_key(aes, 1));
  EXPECT_NE(random_key(aes, 1), random_key(aes, 2));
  EXPECT_EQ(random_key(aes, 1).size(), aes.key_size());
}

TEST(TableCipher, InvalidKindDies) {
  // An out-of-range enum (a corrupted config cast into CipherKind) must
  // fail loudly, not silently hand back the AES adapter.
  EXPECT_DEATH(cipher_for(static_cast<CipherKind>(99)), "invalid CipherKind");
}

TEST(TableCipher, EncryptBatchMatchesReferenceOverRandomSplits) {
  // The equivalence at the crypto seam: for canonical, single-byte-faulted,
  // two-byte-faulted and dead-bit-garbage tables, encrypt_batch over one
  // context must emit the reference primitive's byte stream — however the
  // batch is split.
  for (const CipherKind kind : {CipherKind::kAes128, CipherKind::kPresent80}) {
    const TableCipher& cipher = cipher_for(kind);
    const std::size_t block = cipher.block_size();
    Rng rng(kind == CipherKind::kAes128 ? 21 : 22);
    const auto key = random_key(cipher, rng.next());
    const auto rk = expanded(cipher, key);

    std::vector<std::vector<std::uint8_t>> tables;
    tables.emplace_back(cipher.canonical_table().begin(),
                        cipher.canonical_table().end());
    auto one_fault = tables.back();
    one_fault[rng.uniform(cipher.table_size())] ^=
        static_cast<std::uint8_t>(1u + rng.uniform(15));
    tables.push_back(one_fault);
    auto two_faults = one_fault;
    two_faults[0] ^= 0x07;
    two_faults[cipher.table_size() - 1] ^= 0x03;
    tables.push_back(two_faults);
    // Raw high bits in every entry: dead for PRESENT (must not matter),
    // a many-byte fault for AES (the T-table fallback).
    auto dead_bits = one_fault;
    for (auto& b : dead_bits) b ^= 0x50;
    tables.push_back(dead_bits);

    for (const auto& table : tables) {
      constexpr std::size_t kBlocks = 64;
      std::vector<std::uint8_t> pts(kBlocks * block);
      rng.fill_bytes(pts);

      const auto ctx = cipher.make_context(rk, table);
      std::vector<std::uint8_t> batched(kBlocks * block);
      // Random split points: the context must be reusable across chunks of
      // any size, including size-one chunks and the 4-way+tail boundary.
      std::size_t off = 0;
      while (off < kBlocks) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.uniform(9), kBlocks - off);
        cipher.encrypt_batch(
            *ctx, {pts.data() + off * block, n * block},
            {batched.data() + off * block, n * block});
        off += n;
      }
      EXPECT_EQ(reference_encrypt(kind, key, table, pts), batched)
          << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace explframe::crypto
