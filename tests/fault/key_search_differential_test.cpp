// Differential proof for PresentPfa::recover_master_key: the production
// search (one SP-table derivation per call, round keys written by the
// inverse schedule walk) against the straightforward loop it replaced,
// kept here as the oracle: per candidate a full schedule inversion, a full
// expand_key and a nibble-by-nibble encrypt_with_sbox. Both must return the
// same key after the same number of candidates, or both nothing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/present80.hpp"
#include "fault/injection.hpp"
#include "fault/pfa_present.hpp"
#include "support/rng.hpp"

namespace explframe::fault {
namespace {

using crypto::Present80;
using Table = std::array<std::uint8_t, 16>;

/// Round-32 key register back to the master key, one inverse step at a time.
Present80::Key reference_invert_schedule(__uint128_t reg32) {
  const __uint128_t mask80 = (static_cast<__uint128_t>(1) << 80) - 1;
  const auto& inv = Present80::inv_sbox();
  __uint128_t reg = reg32 & mask80;
  for (std::uint32_t round = 31; round >= 1; --round) {
    reg ^= static_cast<__uint128_t>(round) << 15;
    const auto top = static_cast<std::uint8_t>((reg >> 76) & 0xF);
    reg = (reg & ~(static_cast<__uint128_t>(0xF) << 76)) |
          (static_cast<__uint128_t>(inv[top]) << 76);
    reg = ((reg >> 61) | (reg << 19)) & mask80;
  }
  Present80::Key key{};
  for (std::size_t i = 0; i < 10; ++i)
    key[i] = static_cast<std::uint8_t>(reg >> (8 * (9 - i)));
  return key;
}

/// The oracle search: candidates low = 0..2^16-1 in order, first match wins.
std::optional<PresentPfa::MasterKeyResult> reference_recover_master_key(
    const PresentPfa& pfa, std::uint8_t v, std::uint64_t known_plaintext,
    std::uint64_t known_ciphertext, const Table& faulty_sbox) {
  const auto k32 = pfa.recover_k32(v);
  if (!k32) return std::nullopt;
  for (std::uint32_t low = 0; low < (1u << 16); ++low) {
    const __uint128_t reg32 = (static_cast<__uint128_t>(*k32) << 16) | low;
    const auto key = reference_invert_schedule(reg32);
    const auto rk = Present80::expand_key(key);
    if (Present80::encrypt_with_sbox(known_plaintext, rk, faulty_sbox) ==
        known_ciphertext) {
      return PresentPfa::MasterKeyResult{key, low + 1};
    }
  }
  return std::nullopt;
}

/// A master key whose round-32 register is K32 || low.
Present80::Key key_with_register(std::uint64_t k32, std::uint16_t low) {
  return reference_invert_schedule((static_cast<__uint128_t>(k32) << 16) |
                                   low);
}

struct Case {
  PresentPfa pfa;
  std::uint8_t v = 0;
  std::uint64_t pt = 0;
  std::uint64_t ct = 0;
};

/// Encrypt under the faulty table until PFA pins K32, plus one known pair.
Case faulted_case(const Present80::Key& key, const Table& table,
                  std::uint8_t v, Rng& rng) {
  const auto rk = Present80::expand_key(key);
  const auto sp = Present80::derive_sp_tables(table);
  Case c;
  c.v = v;
  c.pt = rng.next();
  c.ct = Present80::encrypt_with_sbox(c.pt, rk, table);
  for (int i = 0; i < 20000 && !c.pfa.recover_k32(v); ++i)
    c.pfa.add_ciphertext(Present80::encrypt_with_sp(rng.next(), rk, sp));
  EXPECT_EQ(c.pfa.recover_k32(v), rk[31]);
  return c;
}

void expect_same_search(const Case& c, const Table& table,
                        const char* what) {
  const auto got = c.pfa.recover_master_key(c.v, c.pt, c.ct, table);
  const auto want =
      reference_recover_master_key(c.pfa, c.v, c.pt, c.ct, table);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->key, want->key) << what;
  EXPECT_EQ(got->search_tried, want->search_tried) << what;
}

TEST(KeySearchDifferential, EverySingleBitFaultAcrossRandomKeys) {
  // 64 keys x the 64 live S-box bits (low nibble of each entry). The oracle
  // pays microseconds per candidate, so this grid draws each key's round-32
  // register with low < 2^6 (the search length is low + 1); full-range keys
  // and both extremes of low are covered below.
  Rng rng(1201);
  for (int k = 0; k < 64; ++k) {
    const Present80::Key key = key_with_register(
        rng.next(), static_cast<std::uint16_t>(rng.uniform(1u << 6)));
    for (std::uint16_t index = 0; index < 16; ++index) {
      for (std::uint8_t bit = 0; bit < 4; ++bit) {
        Table table = Present80::sbox();
        const auto [v, v_new] =
            apply_fault(table, {index, static_cast<std::uint8_t>(1u << bit)});
        (void)v_new;
        const Case c = faulted_case(key, table, v, rng);
        expect_same_search(c, table, "grid");
        ASSERT_FALSE(::testing::Test::HasFailure())
            << "key " << k << " entry " << index << " bit " << int(bit);
      }
    }
  }
}

TEST(KeySearchDifferential, FullRangeRandomKeys) {
  Rng rng(1202);
  for (int k = 0; k < 6; ++k) {
    Present80::Key key;
    rng.fill_bytes(key);
    Table table = Present80::sbox();
    const auto [v, v_new] = apply_fault(
        table, {static_cast<std::uint16_t>(rng.uniform(16)),
                static_cast<std::uint8_t>(1u << rng.uniform(4))});
    (void)v_new;
    const Case c = faulted_case(key, table, v, rng);
    expect_same_search(c, table, "full-range key");
  }
}

TEST(KeySearchDifferential, RegisterLowExtremes) {
  // low = 0 is the first candidate tried, low = 0xFFFF the last.
  Rng rng(1203);
  for (const std::uint16_t low :
       {std::uint16_t{0x0000}, std::uint16_t{0xFFFF}}) {
    const Present80::Key key = key_with_register(rng.next(), low);
    Table table = Present80::sbox();
    const auto [v, v_new] = apply_fault(table, {0x7, 0x2});
    (void)v_new;
    const Case c = faulted_case(key, table, v, rng);
    const auto got = c.pfa.recover_master_key(c.v, c.pt, c.ct, table);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->key, key);
    EXPECT_EQ(got->search_tried, static_cast<std::uint32_t>(low) + 1);
    expect_same_search(c, table, low == 0 ? "low = 0" : "low = 0xFFFF");
  }
}

TEST(KeySearchDifferential, MismatchedKnownPairFindsNothing) {
  // A known pair from another key: every candidate fails in both searches.
  Rng rng(1204);
  Present80::Key key, other;
  rng.fill_bytes(key);
  rng.fill_bytes(other);
  Table table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0xC, 0x1});
  (void)v_new;
  Case c = faulted_case(key, table, v, rng);
  c.ct = Present80::encrypt_with_sbox(c.pt, Present80::expand_key(other),
                                      table);
  EXPECT_FALSE(c.pfa.recover_master_key(c.v, c.pt, c.ct, table).has_value());
  EXPECT_FALSE(
      reference_recover_master_key(c.pfa, c.v, c.pt, c.ct, table).has_value());
}

}  // namespace
}  // namespace explframe::fault
