#include "attack/victim.hpp"

#include "support/check.hpp"

namespace explframe::attack {

VictimCipherService::VictimCipherService(kernel::System& system,
                                         std::uint32_t cpu,
                                         const crypto::TableCipher& cipher,
                                         const VictimConfig& config)
    : system_(&system),
      cpu_(cpu),
      cipher_(&cipher),
      config_(config),
      table_scratch_(cipher.table_size()),
      rk_scratch_(cipher.round_key_size()) {
  EXPLFRAME_CHECK(config.sbox_offset + cipher.table_size() <= kPageSize);
  EXPLFRAME_CHECK(cipher.round_key_size() <= kPageSize);
  EXPLFRAME_CHECK(config.data_pages >= 2);
  EXPLFRAME_CHECK_MSG(config.key.size() == cipher.key_size(),
                      "victim key size must match the cipher");
}

void VictimCipherService::start() {
  task_ = &system_->spawn("victim", cpu_);
  if (config_.warm_up) {
    const vm::VirtAddr warm = system_->sys_mmap(*task_, kPageSize);
    const std::uint8_t b = 0xA5;
    system_->mem_write(*task_, warm, {&b, 1});
  }
}

void VictimCipherService::install_tables() {
  EXPLFRAME_CHECK_MSG(task_ != nullptr, "start() first");
  region_va_ = system_->sys_mmap(
      *task_, static_cast<std::uint64_t>(config_.data_pages) * kPageSize);
  // Page 0: crypto context header + S-box table (touched first, so it
  // receives the head of the CPU's page frame cache). Page 1: round keys.
  table_va_ = region_va_;
  keys_va_ = region_va_ + kPageSize;

  const auto table = cipher_->canonical_table();
  EXPLFRAME_CHECK(system_->mem_write(*task_, table_va_ + config_.sbox_offset,
                                     {table.data(), table.size()}));
  std::vector<std::uint8_t> rk(cipher_->round_key_size());
  cipher_->expand_key(config_.key, rk);
  EXPLFRAME_CHECK(
      system_->mem_write(*task_, keys_va_, {rk.data(), rk.size()}));
  // Touch the remaining context pages (buffers, bignum scratch, ...).
  for (std::uint32_t p = 2; p < config_.data_pages; ++p) {
    const std::uint8_t zero = 0;
    system_->mem_write(*task_, region_va_ + p * kPageSize, {&zero, 1});
  }
}

std::vector<std::uint8_t> VictimCipherService::read_table() {
  std::vector<std::uint8_t> table(cipher_->table_size());
  EXPLFRAME_CHECK(system_->mem_read(*task_, table_va_ + config_.sbox_offset,
                                    {table.data(), table.size()}));
  return table;
}

bool VictimCipherService::table_corrupted() {
  const auto table = read_table();
  const auto canonical = cipher_->canonical_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint8_t live = cipher_->live_bits(i);
    if ((table[i] & live) != (canonical[i] & live)) return true;
  }
  return false;
}

void VictimCipherService::encrypt(std::span<const std::uint8_t> plaintext,
                                  std::span<std::uint8_t> ciphertext) {
  EXPLFRAME_CHECK(plaintext.size() == cipher_->block_size());
  EXPLFRAME_CHECK(ciphertext.size() == cipher_->block_size());
  encrypt_batch(plaintext, ciphertext);
}

void VictimCipherService::encrypt_batch(
    std::span<const std::uint8_t> plaintexts,
    std::span<std::uint8_t> ciphertexts) {
  EXPLFRAME_CHECK_MSG(table_va_ != 0, "install_tables() first");
  const std::size_t block = cipher_->block_size();
  EXPLFRAME_CHECK(plaintexts.size() == ciphertexts.size());
  EXPLFRAME_CHECK(plaintexts.size() % block == 0);
  // Re-reading table + round keys before every block would return the same
  // bytes while the memory epoch is unchanged, so one snapshot pair of
  // mem_reads per epoch is observationally identical. Nothing inside the
  // batch mutates simulated memory (reads do not advance the device clock,
  // and the victim's pages are already faulted in), so one check per batch
  // suffices.
  if (!batch_ctx_ || batch_epoch_ != system_->memory_epoch()) {
    EXPLFRAME_CHECK(system_->mem_read(
        *task_, table_va_ + config_.sbox_offset,
        {table_scratch_.data(), table_scratch_.size()}));
    EXPLFRAME_CHECK(system_->mem_read(
        *task_, keys_va_, {rk_scratch_.data(), rk_scratch_.size()}));
    batch_ctx_ = cipher_->make_context(rk_scratch_, table_scratch_);
    // Read the epoch after the snapshot: a demand fault during the reads
    // (possible if the pages were reclaimed) would bump it.
    batch_epoch_ = system_->memory_epoch();
  }
  cipher_->encrypt_batch(*batch_ctx_, plaintexts, ciphertexts);
  encryptions_ += plaintexts.size() / block;
}

}  // namespace explframe::attack
