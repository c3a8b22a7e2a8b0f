// Regression: System::restore() must advance the memory epoch.
//
// VictimCipherService::encrypt_batch caches the decoded (table, round
// keys) keyed by kernel::System::memory_epoch(). A restore that rolled the
// epoch back to its captured value would make a cache entry built from
// PRE-restore memory look valid AFTER the rollback, and the victim would
// keep encrypting through state that no longer exists. The contract
// (snapshot/restorable.hpp): restore is exact for simulation state, except
// the epoch, which strictly advances.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../attack/reference_campaign.hpp"
#include "attack/victim.hpp"
#include "crypto/table_cipher.hpp"
#include "kernel/system.hpp"
#include "support/units.hpp"

namespace explframe::attack {
namespace {

kernel::SystemConfig small_config() {
  kernel::SystemConfig cfg;
  cfg.memory_bytes = 16 * kMiB;
  cfg.num_cpus = 1;
  cfg.seed = 5;
  return cfg;
}

/// Flip `flip_mask` in EVERY table byte through ordinary task memory
/// writes (models a fault; corrupting all entries guarantees the
/// encryption actually consults a corrupted byte for any plaintext).
void corrupt_table(kernel::System& sys, VictimCipherService& victim,
                   std::uint8_t flip_mask) {
  const vm::VirtAddr va =
      victim.table_page_va() + victim.config().sbox_offset;
  std::vector<std::uint8_t> table(victim.cipher().table_size());
  ASSERT_TRUE(sys.mem_read(victim.task(), va, table));
  for (std::uint8_t& byte : table) byte ^= flip_mask;
  ASSERT_TRUE(sys.mem_write(victim.task(), va, table));
}

TEST(EpochRegression, RestoreInvalidatesBatchedEncryptCache) {
  kernel::System sys(small_config());
  const crypto::TableCipher& cipher =
      crypto::cipher_for(crypto::CipherKind::kAes128);
  VictimConfig cfg;
  cfg.key = crypto::random_key(cipher, 99);
  VictimCipherService victim(sys, 0, cipher, cfg);
  victim.start();
  victim.install_tables();

  const std::size_t block = cipher.block_size();
  std::vector<std::uint8_t> pt(4 * block, 0xa5);
  std::vector<std::uint8_t> batch(4 * block);
  std::vector<std::uint8_t> reloaded(4 * block);
  const auto harvest_both = [&] {
    victim.encrypt_batch(pt, batch);
    for (std::size_t i = 0; i < 4; ++i)
      reference::reload_encrypt(sys, victim, {pt.data() + i * block, block},
                                {reloaded.data() + i * block, block});
  };

  const auto snap = sys.snapshot();
  const std::uint64_t epoch0 = sys.memory_epoch();

  // Corrupt, harvest: the batch cache now holds the corrupted table.
  corrupt_table(sys, victim, 0x02);
  harvest_both();
  EXPECT_EQ(batch, reloaded);
  const std::vector<std::uint8_t> corrupted_cts = batch;

  // Roll back. The epoch must strictly advance — never revert — so the
  // cached corrupted-table context cannot satisfy the next batch.
  sys.restore(*snap);
  EXPECT_GT(sys.memory_epoch(), epoch0);
  ASSERT_FALSE(victim.table_corrupted());
  harvest_both();
  EXPECT_EQ(batch, reloaded);
  EXPECT_NE(batch, corrupted_cts) << "stale cache survived the restore";

  // Corrupt DIFFERENTLY after the rollback and re-harvest: the batch path
  // must see the new fault, not any remembered one.
  corrupt_table(sys, victim, 0x08);
  harvest_both();
  EXPECT_EQ(batch, reloaded);
  EXPECT_NE(batch, corrupted_cts);

  // Every further restore keeps advancing the epoch.
  const std::uint64_t before = sys.memory_epoch();
  sys.restore(*snap);
  EXPECT_GT(sys.memory_epoch(), before);
}

}  // namespace
}  // namespace explframe::attack
