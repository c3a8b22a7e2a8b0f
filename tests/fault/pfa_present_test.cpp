#include "fault/pfa_present.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/injection.hpp"
#include "support/rng.hpp"

namespace explframe::fault {
namespace {

using crypto::Present80;

TEST(PresentPfa, RecoversLastRoundKey) {
  Rng rng(201);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x5, 0x2});
  const auto rk = Present80::expand_key(key);

  PresentPfa pfa;
  for (int i = 0; i < 600; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));

  const auto k32 = pfa.recover_k32(v);
  ASSERT_TRUE(k32.has_value());
  EXPECT_EQ(*k32, rk[31]);
  (void)v_new;
}

TEST(PresentPfa, RecoversMasterKeyWithResidualSearch) {
  Rng rng(202);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0xB, 0x8});
  (void)v_new;
  const auto rk = Present80::expand_key(key);

  PresentPfa pfa;
  const std::uint64_t known_pt = rng.next();
  const std::uint64_t known_ct =
      Present80::encrypt_with_sbox(known_pt, rk, table);
  for (int i = 0; i < 800; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));

  const auto result = pfa.recover_master_key(v, known_pt, known_ct, table);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->key, key);
  EXPECT_GE(result->search_tried, 1u);
  EXPECT_LE(result->search_tried, 1u << 16);
}

TEST(PresentPfa, NeedsFarFewerCiphertextsThanAes) {
  // 16-value nibbles saturate after ~O(16 ln 16) ~ 45 samples; 200 is
  // plenty. This is the data-complexity contrast the `fault-techniques`
  // experiment shows.
  Rng rng(203);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x3, 0x1});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int i = 0; i < 200; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
  EXPECT_TRUE(pfa.recover_k32(v).has_value());
}

TEST(PresentPfa, KeyspaceShrinksMonotonically) {
  Rng rng(204);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x9, 0x4});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  double last = 64.0;
  for (int chunk = 0; chunk < 6; ++chunk) {
    for (int i = 0; i < 30; ++i)
      pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
    const double now = pfa.remaining_keyspace_log2(v);
    EXPECT_LE(now, last + 1e-9);
    last = now;
  }
  EXPECT_DOUBLE_EQ(last, 0.0);
}

TEST(PresentPfa, TooFewCiphertextsAmbiguous) {
  Rng rng(205);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x1, 0x2});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int i = 0; i < 5; ++i)
    pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
  EXPECT_FALSE(pfa.recover_k32(v).has_value());
  EXPECT_GT(pfa.remaining_keyspace_log2(v), 0.0);
}

TEST(PresentPfa, ResetClears) {
  PresentPfa pfa;
  pfa.add_ciphertext(0x123456789abcdef0ULL);
  EXPECT_EQ(pfa.ciphertext_count(), 1u);
  pfa.reset();
  EXPECT_EQ(pfa.ciphertext_count(), 0u);
  // Reset restores the incremental tallies too: a fresh engine and a reset
  // one must agree after absorbing the same stream.
  PresentPfa fresh;
  Rng rng(207);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t c = rng.next();
    pfa.add_ciphertext(c);
    fresh.add_ciphertext(c);
  }
  EXPECT_EQ(pfa.recover_k32(0xC), fresh.recover_k32(0xC));
  EXPECT_EQ(pfa.remaining_keyspace_log2(0xC),
            fresh.remaining_keyspace_log2(0xC));
}

TEST(PresentPfa, IncrementalTalliesMatchCandidateRescan) {
  Rng rng(208);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  const auto [v, v_new] = apply_fault(table, {0x5, 0x2});
  (void)v_new;
  const auto rk = Present80::expand_key(key);
  PresentPfa pfa;
  for (int step = 0; step < 40; ++step) {
    for (int i = 0; i < 20; ++i)
      pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
    const auto cand = pfa.candidates(v);
    double bits = 0.0;
    bool empty = false;
    bool unique = true;
    for (const auto& c : cand) {
      if (c.empty()) empty = true;
      if (c.size() != 1) unique = false;
      bits += c.empty() ? 0.0 : std::log2(static_cast<double>(c.size()));
    }
    EXPECT_DOUBLE_EQ(pfa.remaining_keyspace_log2(v), empty ? 64.0 : bits);
    EXPECT_EQ(pfa.recover_k32(v).has_value(), unique);
  }
  ASSERT_TRUE(pfa.recover_k32(v).has_value());
  EXPECT_EQ(*pfa.recover_k32(v), rk[31]);
}

TEST(PresentPfa, BatchAddEqualsPerCiphertextAdd) {
  Rng rng(209);
  Present80::Key key;
  rng.fill_bytes(key);
  auto table = Present80::sbox();
  apply_fault(table, {0x3, 0x1});
  const auto rk = Present80::expand_key(key);

  PresentPfa per, batch;
  std::vector<std::uint8_t> flat;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t ct =
        Present80::encrypt_with_sbox(rng.next(), rk, table);
    per.add_ciphertext(ct);
    for (int b = 0; b < 8; ++b)
      flat.push_back(static_cast<std::uint8_t>(ct >> (8 * b)));
  }
  batch.add_ciphertext_batch(flat);
  EXPECT_EQ(batch.ciphertext_count(), per.ciphertext_count());
  const std::uint8_t v = Present80::sbox()[0x3];
  EXPECT_EQ(batch.recover_k32(v), per.recover_k32(v));
  EXPECT_EQ(batch.remaining_keyspace_log2(v), per.remaining_keyspace_log2(v));
}

}  // namespace
}  // namespace explframe::fault
