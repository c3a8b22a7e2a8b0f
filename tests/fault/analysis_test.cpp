// fault::Analysis — the engine adapters behind the unified interface: key
// recovery through the interface for all three engines, the one-block
// add_ciphertext forwarder against add_ciphertext_batch, capability flags,
// and factory guard rails.
#include "fault/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes128.hpp"
#include "crypto/present80.hpp"
#include "fault/injection.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace explframe::fault {
namespace {

using crypto::Aes128;
using crypto::CipherKind;
using crypto::Present80;
using crypto::cipher_for;

TEST(FaultModelFor, DerivesValuesFromTemplate) {
  const auto& aes = cipher_for(CipherKind::kAes128);
  const FaultModel f = fault_model_for(aes, 0x42, 3);
  EXPECT_EQ(f.table_index, 0x42);
  EXPECT_EQ(f.mask, 0x08);
  EXPECT_EQ(f.v, Aes128::sbox()[0x42]);
  EXPECT_EQ(f.v_new, Aes128::sbox()[0x42] ^ 0x08);

  // Dead bits produce an empty mask (the flip cannot fault the cipher).
  const auto& present = cipher_for(CipherKind::kPresent80);
  EXPECT_EQ(fault_model_for(present, 5, 6).mask, 0);
  EXPECT_EQ(fault_model_for(present, 5, 1).mask, 0x02);
}

TEST(Analysis, AesPfaRecoversKeyThroughInterface) {
  Rng rng(101);
  Aes128::Key key;
  rng.fill_bytes(key);
  const auto rk = Aes128::expand_key(key);
  auto table = Aes128::sbox();
  const SboxByteFault fault{0x17, 0x20};
  const auto [v, v_new] = apply_fault(table, fault);

  const auto analysis =
      make_analysis(AnalysisKind::kPfaMissingValue,
                    cipher_for(CipherKind::kAes128),
                    FaultModel{fault.index, fault.mask, v, v_new});
  EXPECT_FALSE(analysis->wants_known_pair());
  EXPECT_EQ(analysis->residual_search(), 0u);

  std::optional<std::vector<std::uint8_t>> recovered;
  while (analysis->ciphertext_count() < 20'000) {
    for (int i = 0; i < 256; ++i) {
      Aes128::Block pt;
      rng.fill_bytes(pt);
      analysis->add_ciphertext(Aes128::encrypt_with_sbox(pt, rk, table));
    }
    if ((recovered = analysis->recover_key())) break;
  }
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(std::equal(recovered->begin(), recovered->end(), key.begin(),
                         key.end()));
  EXPECT_EQ(analysis->remaining_keyspace_log2(), 0.0);

  analysis->reset();
  EXPECT_EQ(analysis->ciphertext_count(), 0u);
  EXPECT_FALSE(analysis->recover_key().has_value());
}

TEST(Analysis, PresentPfaRecoversKeyThroughInterface) {
  Rng rng(102);
  Present80::Key key;
  rng.fill_bytes(key);
  const auto rk = Present80::expand_key(key);
  auto table = Present80::sbox();
  const SboxByteFault fault{0x9, 0x4};
  const auto [v, v_new] = apply_fault(table, fault);

  const auto analysis =
      make_analysis(AnalysisKind::kPfaMissingValue,
                    cipher_for(CipherKind::kPresent80),
                    FaultModel{fault.index, fault.mask, v, v_new});
  EXPECT_TRUE(analysis->wants_known_pair());

  const auto encrypt_bytes = [&](std::uint64_t pt) {
    return u64_to_le_bytes(Present80::encrypt_with_sbox(pt, rk, table));
  };

  // Without the known pair the residual search cannot run.
  for (int i = 0; i < 500; ++i) analysis->add_ciphertext(encrypt_bytes(rng.next()));
  EXPECT_FALSE(analysis->recover_key().has_value());

  const std::uint64_t known_pt = rng.next();
  analysis->set_known_pair(u64_to_le_bytes(known_pt),
                           encrypt_bytes(known_pt));

  std::optional<std::vector<std::uint8_t>> recovered;
  while (analysis->ciphertext_count() < 5'000) {
    if ((recovered = analysis->recover_key())) break;
    for (int i = 0; i < 25; ++i)
      analysis->add_ciphertext(encrypt_bytes(rng.next()));
  }
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(std::equal(recovered->begin(), recovered->end(), key.begin(),
                         key.end()));
  EXPECT_GT(analysis->residual_search(), 0u);
  EXPECT_LE(analysis->residual_search(), 1u << 16);
}

TEST(Analysis, PerBlockForwarderMatchesBatchOverRandomSplits) {
  // add_ciphertext is a one-block add_ciphertext_batch: feeding one engine
  // block by block and a twin in random-sized batches must leave both with
  // the same key space after every batch and the same recovered key.
  struct Case {
    AnalysisKind kind;
    CipherKind cipher;
    std::size_t blocks;
  };
  for (const Case c : {Case{AnalysisKind::kPfaMissingValue,
                            CipherKind::kAes128, 4000},
                       Case{AnalysisKind::kPfaMaxLikelihood,
                            CipherKind::kAes128, 8000},
                       Case{AnalysisKind::kPfaMissingValue,
                            CipherKind::kPresent80, 1500}}) {
    const bool aes = c.cipher == CipherKind::kAes128;
    const std::size_t block = aes ? 16 : 8;
    Rng rng(aes ? 104 : 105);
    const SboxByteFault fault{0x5, 0x2};
    std::vector<std::uint8_t> cts(c.blocks * block);
    std::vector<std::uint8_t> known_pt(block);
    std::vector<std::uint8_t> known_ct(block);
    FaultModel model;
    if (aes) {
      Aes128::Key key;
      rng.fill_bytes(key);
      const auto rk = Aes128::expand_key(key);
      auto table = Aes128::sbox();
      const auto [v, v_new] = apply_fault(table, fault);
      model = FaultModel{fault.index, fault.mask, v, v_new};
      for (std::size_t off = 0; off < cts.size(); off += 16) {
        Aes128::Block pt;
        rng.fill_bytes(pt);
        const auto ct = Aes128::encrypt_with_sbox(pt, rk, table);
        std::copy(ct.begin(), ct.end(), cts.begin() + off);
      }
    } else {
      Present80::Key key;
      rng.fill_bytes(key);
      const auto rk = Present80::expand_key(key);
      auto table = Present80::sbox();
      const auto [v, v_new] = apply_fault(table, fault);
      model = FaultModel{fault.index, fault.mask, v, v_new};
      for (std::size_t off = 0; off < cts.size(); off += 8)
        u64_to_le_bytes(Present80::encrypt_with_sbox(rng.next(), rk, table),
                        std::span(cts).subspan(off, 8));
      const std::uint64_t pt = rng.next();
      u64_to_le_bytes(pt, known_pt);
      u64_to_le_bytes(Present80::encrypt_with_sbox(pt, rk, table), known_ct);
    }

    const auto& cipher = cipher_for(c.cipher);
    const auto per_block = make_analysis(c.kind, cipher, model);
    const auto batched = make_analysis(c.kind, cipher, model);
    per_block->set_known_pair(known_pt, known_ct);
    batched->set_known_pair(known_pt, known_ct);

    std::size_t fed = 0;
    while (fed < c.blocks) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(300), c.blocks - fed);
      batched->add_ciphertext_batch(
          std::span(cts).subspan(fed * block, n * block), block);
      for (std::size_t i = fed; i < fed + n; ++i)
        per_block->add_ciphertext(std::span(cts).subspan(i * block, block));
      fed += n;
      ASSERT_EQ(per_block->ciphertext_count(), batched->ciphertext_count());
      ASSERT_EQ(per_block->remaining_keyspace_log2(),
                batched->remaining_keyspace_log2())
          << static_cast<int>(c.kind) << " after " << fed;
    }
    const auto key = batched->recover_key();
    ASSERT_TRUE(key.has_value()) << static_cast<int>(c.kind);
    EXPECT_EQ(per_block->recover_key(), key);
    EXPECT_EQ(per_block->residual_search(), batched->residual_search());
  }
}

TEST(Analysis, FactoryRejectsUnsupportedCombinations) {
  EXPECT_DEATH(make_analysis(AnalysisKind::kPfaMaxLikelihood,
                             cipher_for(CipherKind::kPresent80), {}),
               "AES-only");
}

}  // namespace
}  // namespace explframe::fault
