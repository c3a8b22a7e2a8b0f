#include "attack/victim.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes128.hpp"
#include "reference_campaign.hpp"
#include "support/rng.hpp"

namespace explframe::attack {
namespace {

using crypto::Aes128;

kernel::SystemConfig cfg() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 1;
  c.dram.weak_cells.cells_per_mib = 0.0;
  return c;
}

const crypto::TableCipher& aes_cipher() {
  return crypto::cipher_for(crypto::CipherKind::kAes128);
}

VictimConfig victim_cfg() {
  VictimConfig v;
  v.key = crypto::random_key(aes_cipher(), 77);
  return v;
}

Aes128::Key to_aes_key(const std::vector<std::uint8_t>& bytes) {
  Aes128::Key k{};
  std::copy(bytes.begin(), bytes.end(), k.begin());
  return k;
}

Aes128::Block encrypt_block(VictimCipherService& victim,
                            const Aes128::Block& pt) {
  Aes128::Block out{};
  victim.encrypt(pt, out);
  return out;
}

TEST(VictimCipherService, EncryptsCorrectlyFromMemoryTables) {
  kernel::System sys(cfg());
  VictimCipherService victim(sys, 0, aes_cipher(), victim_cfg());
  victim.start();
  victim.install_tables();

  Rng rng(5);
  const auto rk = Aes128::expand_key(to_aes_key(victim.config().key));
  for (int i = 0; i < 20; ++i) {
    Aes128::Block pt;
    rng.fill_bytes(pt);
    EXPECT_EQ(encrypt_block(victim, pt), Aes128::encrypt(pt, rk));
  }
  EXPECT_EQ(victim.encryptions(), 20u);
}

TEST(VictimCipherService, TableReadBackMatchesSbox) {
  kernel::System sys(cfg());
  VictimCipherService victim(sys, 0, aes_cipher(), victim_cfg());
  victim.start();
  victim.install_tables();
  const auto table = victim.read_table();
  ASSERT_EQ(table.size(), 256u);
  EXPECT_TRUE(std::equal(table.begin(), table.end(), Aes128::sbox().begin()));
  EXPECT_FALSE(victim.table_corrupted());
}

TEST(VictimCipherService, CorruptedTableDetectedAndUsed) {
  kernel::System sys(cfg());
  VictimCipherService victim(sys, 0, aes_cipher(), victim_cfg());
  victim.start();
  victim.install_tables();

  // Corrupt one table byte directly in DRAM (as a Rowhammer flip would).
  const auto phys = sys.phys_of(victim.task(), victim.table_page_va() +
                                                   victim.config().sbox_offset +
                                                   0x42);
  sys.dram().write_byte(phys, sys.dram().read_byte(phys) ^ 0x08);

  EXPECT_TRUE(victim.table_corrupted());
  auto faulty = Aes128::sbox();
  faulty[0x42] ^= 0x08;
  const auto rk = Aes128::expand_key(to_aes_key(victim.config().key));
  Rng rng(6);
  Aes128::Block pt;
  rng.fill_bytes(pt);
  EXPECT_EQ(encrypt_block(victim, pt),
            Aes128::encrypt_with_sbox(
                pt, rk, std::span<const std::uint8_t, 256>(faulty)));
}

TEST(VictimCipherService, TablePageIsFirstTouchedPage) {
  kernel::System sys(cfg());
  VictimCipherService victim(sys, 0, aes_cipher(), victim_cfg());
  victim.start();

  // Plant a known frame at the pcp head just before installation.
  kernel::Task& planter = sys.spawn("planter", 0);
  const vm::VirtAddr pv = sys.sys_mmap(planter, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(planter, pv, {&b, 1}));
  const mm::Pfn planted = sys.translate(planter, pv);
  sys.sys_munmap(planter, pv, kPageSize);

  victim.install_tables();
  EXPECT_EQ(sys.translate(victim.task(), victim.table_page_va()), planted);
}

TEST(VictimCipherService, ConfigValidation) {
  kernel::System sys(cfg());
  VictimConfig bad = victim_cfg();
  bad.sbox_offset = kPageSize - 100;  // table would not fit in the page
  EXPECT_DEATH({ VictimCipherService v(sys, 0, aes_cipher(), bad); },
               "invariant");
}

TEST(VictimCipherService, KeySizeValidation) {
  kernel::System sys(cfg());
  VictimConfig bad = victim_cfg();
  bad.key.resize(10);  // PRESENT-sized key with an AES cipher
  EXPECT_DEATH({ VictimCipherService v(sys, 0, aes_cipher(), bad); },
               "key size");
}

TEST(VictimCipherService, EncryptBatchMatchesReloadOracleOverRandomSplits) {
  // Two identical victims on identical systems, fed the same plaintext
  // stream: one through the test-side reload oracle (table + round keys
  // re-read before every block), one batched with random chunk sizes. The
  // ciphertext streams must be byte-identical and the encryption counter
  // must count every batched block.
  for (const auto kind :
       {crypto::CipherKind::kAes128, crypto::CipherKind::kPresent80}) {
    const crypto::TableCipher& cipher = crypto::cipher_for(kind);
    VictimConfig vc;
    vc.key = crypto::random_key(cipher, 123);
    kernel::System sys_a(cfg()), sys_b(cfg());
    VictimCipherService scalar_victim(sys_a, 0, cipher, vc);
    VictimCipherService batch_victim(sys_b, 0, cipher, vc);
    for (auto* v : {&scalar_victim, &batch_victim}) {
      v->start();
      v->install_tables();
    }

    const std::size_t block = cipher.block_size();
    constexpr std::size_t kBlocks = 300;
    std::vector<std::uint8_t> pts(kBlocks * block);
    Rng rng(9);
    rng.fill_bytes(pts);

    std::vector<std::uint8_t> scalar(kBlocks * block);
    for (std::size_t i = 0; i < kBlocks; ++i)
      reference::reload_encrypt(sys_a, scalar_victim,
                                {pts.data() + i * block, block},
                                {scalar.data() + i * block, block});

    std::vector<std::uint8_t> batched(kBlocks * block);
    Rng split_rng(10);
    std::size_t off = 0;
    while (off < kBlocks) {
      const std::size_t n =
          std::min<std::size_t>(1 + split_rng.uniform(40), kBlocks - off);
      batch_victim.encrypt_batch({pts.data() + off * block, n * block},
                                 {batched.data() + off * block, n * block});
      off += n;
    }

    EXPECT_EQ(scalar, batched) << crypto::to_string(kind);
    EXPECT_EQ(batch_victim.encryptions(), kBlocks);
  }
}

TEST(VictimCipherService, EpochInvalidationMidHarvestRefreshesSnapshot) {
  // Corrupt the stored table between chunks (as the re-hammer or a noise
  // task's write would). The batched path must notice through the memory
  // epoch, drop its snapshot, and keep emitting exactly the reload
  // oracle's stream — before AND after the corruption.
  const crypto::TableCipher& cipher = aes_cipher();
  VictimConfig vc = victim_cfg();
  kernel::System sys_a(cfg()), sys_b(cfg());
  VictimCipherService scalar_victim(sys_a, 0, cipher, vc);
  VictimCipherService batch_victim(sys_b, 0, cipher, vc);
  for (auto* v : {&scalar_victim, &batch_victim}) {
    v->start();
    v->install_tables();
  }

  constexpr std::size_t kBlocks = 96;  // corrupt after block 48
  std::vector<std::uint8_t> pts(kBlocks * 16);
  Rng rng(11);
  rng.fill_bytes(pts);

  const auto corrupt = [&](kernel::System& sys, VictimCipherService& victim) {
    const auto phys = sys.phys_of(
        victim.task(),
        victim.table_page_va() + victim.config().sbox_offset + 0x51);
    sys.dram().inject_flip(phys, 3);
  };

  std::vector<std::uint8_t> scalar(kBlocks * 16);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    if (i == 48) corrupt(sys_a, scalar_victim);
    reference::reload_encrypt(sys_a, scalar_victim, {pts.data() + i * 16, 16},
                              {scalar.data() + i * 16, 16});
  }

  std::vector<std::uint8_t> batched(kBlocks * 16);
  batch_victim.encrypt_batch({pts.data(), 48 * 16}, {batched.data(), 48 * 16});
  corrupt(sys_b, batch_victim);
  batch_victim.encrypt_batch({pts.data() + 48 * 16, 48 * 16},
                             {batched.data() + 48 * 16, 48 * 16});

  EXPECT_TRUE(batch_victim.table_corrupted());
  EXPECT_EQ(scalar, batched);
  // Sanity: the corruption actually changed the stream (the second half
  // differs from what an uncorrupted victim would emit).
  kernel::System sys_c(cfg());
  VictimCipherService clean(sys_c, 0, cipher, vc);
  clean.start();
  clean.install_tables();
  std::vector<std::uint8_t> clean_ct(kBlocks * 16);
  clean.encrypt_batch(pts, clean_ct);
  EXPECT_NE(batched, clean_ct);
  EXPECT_TRUE(std::equal(batched.begin(), batched.begin() + 48 * 16,
                         clean_ct.begin()));
}

}  // namespace
}  // namespace explframe::attack
