// Differential proof for the PRESENT residual key search: the production
// search (Present80::find_register_low, bitsliced 256 candidates per pass,
// behind PresentPfa::recover_master_key) against the straightforward loop,
// kept here as the oracle: per candidate a full schedule inversion, a full
// expand_key and a nibble-by-nibble encrypt_with_sbox. Both must return the
// same key after the same number of candidates, or both nothing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>

#include "../crypto/reference_ciphers.hpp"
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
  const auto& inv = crypto::reference::present_inv_sbox();
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

/// A master key whose round-32 register is K32 || low.
Present80::Key key_with_register(std::uint64_t k32, std::uint16_t low) {
  return reference_invert_schedule((static_cast<__uint128_t>(k32) << 16) |
                                   low);
}

/// The oracle search: candidates low = 0..2^16-1 in order, first match wins.
std::optional<std::uint16_t> reference_find_register_low(
    std::uint64_t k32, std::uint64_t known_plaintext,
    std::uint64_t known_ciphertext, const Table& table) {
  for (std::uint32_t low = 0; low < (1u << 16); ++low) {
    const auto rk = Present80::expand_key(
        key_with_register(k32, static_cast<std::uint16_t>(low)));
    if (Present80::encrypt_with_sbox(known_plaintext, rk, table) ==
        known_ciphertext) {
      return static_cast<std::uint16_t>(low);
    }
  }
  return std::nullopt;
}

/// The oracle's recover_master_key: K32 from PFA, then the oracle search.
std::optional<PresentPfa::MasterKeyResult> reference_recover_master_key(
    const PresentPfa& pfa, std::uint8_t v, std::uint64_t known_plaintext,
    std::uint64_t known_ciphertext, const Table& faulty_sbox) {
  const auto k32 = pfa.recover_k32(v);
  if (!k32) return std::nullopt;
  const auto low = reference_find_register_low(*k32, known_plaintext,
                                               known_ciphertext, faulty_sbox);
  if (!low) return std::nullopt;
  return PresentPfa::MasterKeyResult{key_with_register(*k32, *low),
                                     static_cast<std::uint32_t>(*low) + 1};
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

/// Plaintext and its ciphertext under `table` for the master key whose
/// round-32 register is K32 || low.
struct KnownPair {
  std::uint64_t pt = 0;
  std::uint64_t ct = 0;
};
KnownPair known_pair(std::uint64_t k32, std::uint16_t low, const Table& table,
                     Rng& rng) {
  KnownPair p;
  p.pt = rng.next();
  p.ct = Present80::encrypt_with_sbox(
      p.pt, Present80::expand_key(key_with_register(k32, low)), table);
  return p;
}

/// find_register_low against the oracle, for a register with a small low
/// (the oracle pays microseconds per candidate).
void expect_same_low(std::uint64_t k32, const KnownPair& p,
                     const Table& table, const char* what) {
  EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, table),
            reference_find_register_low(k32, p.pt, p.ct, table))
      << what;
}

TEST(FindRegisterLow, LaneWordAndBlockBoundaries) {
  // 256 candidates per pass, in four 64-lane words: the first and last
  // lane of a word, of a pass, and of the last passes.
  Rng rng(1205);
  for (const std::uint16_t low :
       {std::uint16_t{1}, std::uint16_t{63}, std::uint16_t{64},
        std::uint16_t{255}, std::uint16_t{256}, std::uint16_t{0xFF00},
        std::uint16_t{0xFFFE}}) {
    const std::uint64_t k32 = rng.next();
    Table table = Present80::sbox();
    const auto [v, v_new] = apply_fault(
        table, {static_cast<std::uint16_t>(rng.uniform(16)),
                static_cast<std::uint8_t>(1u << rng.uniform(4))});
    (void)v_new;
    const KnownPair p = known_pair(k32, low, table, rng);
    EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, table), low)
        << "low " << low;

    const Case c = faulted_case(key_with_register(k32, low), table, v, rng);
    const auto got = c.pfa.recover_master_key(c.v, c.pt, c.ct, table);
    ASSERT_TRUE(got.has_value()) << "low " << low;
    EXPECT_EQ(got->key, key_with_register(k32, low)) << "low " << low;
    EXPECT_EQ(got->search_tried, static_cast<std::uint32_t>(low) + 1)
        << "low " << low;
  }
}

TEST(FindRegisterLow, MultiFaultTablesMatchTheOracle) {
  Rng rng(1206);
  for (int k = 0; k < 16; ++k) {
    const std::uint64_t k32 = rng.next();
    const auto low = static_cast<std::uint16_t>(rng.uniform(1u << 6));
    // Two live bits of one entry.
    Table two_bits = Present80::sbox();
    two_bits[rng.uniform(16)] ^= 0x9;
    expect_same_low(k32, known_pair(k32, low, two_bits, rng), two_bits,
                    "two bits in one entry");
    // Three entries, one live bit each.
    Table three = Present80::sbox();
    for (const std::uint16_t index : {0x2, 0x8, 0xE})
      three[index] ^= static_cast<std::uint8_t>(1u << rng.uniform(4));
    expect_same_low(k32, known_pair(k32, low, three, rng), three,
                    "three entries");
  }
}

TEST(FindRegisterLow, DeadHighNibbleFlipsActAsTheRealSbox) {
  Rng rng(1207);
  Table dirty = Present80::sbox();
  for (auto& entry : dirty) entry ^= 0xF0;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t k32 = rng.next();
    const auto low = static_cast<std::uint16_t>(rng.uniform(1u << 16));
    const KnownPair p = known_pair(k32, low, Present80::sbox(), rng);
    EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, dirty), low);
    EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, dirty),
              Present80::find_register_low(k32, p.pt, p.ct,
                                           Present80::sbox()));
  }
  const std::uint64_t k32 = rng.next();
  expect_same_low(k32, known_pair(k32, 17, dirty, rng), dirty, "dead bits");
}

TEST(FindRegisterLow, ConstantTableMatchesTheFirstCandidate) {
  // Every S-box output is 0x7, so every key gives the same ciphertext: the
  // first candidate, low = 0, already matches.
  Rng rng(1208);
  Table constant;
  constant.fill(0x7);
  const std::uint64_t k32 = rng.next();
  const KnownPair p = known_pair(k32, 0x1234, constant, rng);
  EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, constant), 0);
  expect_same_low(k32, p, constant, "constant table");
}

TEST(FindRegisterLow, MismatchedPairFindsNothing) {
  Rng rng(1209);
  Table table = Present80::sbox();
  table[0x4] ^= 0x2;
  const std::uint64_t k32 = rng.next();
  KnownPair p = known_pair(k32, 0x0101, table, rng);
  p.ct ^= 1;
  EXPECT_EQ(Present80::find_register_low(k32, p.pt, p.ct, table),
            std::nullopt);
}

}  // namespace
}  // namespace explframe::fault
