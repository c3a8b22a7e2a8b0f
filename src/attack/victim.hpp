// The victim: a long-running crypto service whose S-box table and round
// keys live in its own anonymous pages — the "sensitive data" the paper's
// attacker steers onto a Rowhammer-vulnerable frame.
//
// The service is cipher-agnostic: everything cipher-specific (table size,
// live bits, key schedule, block shape) comes through crypto::TableCipher,
// so the same installation and reload-from-memory data path serves AES-128,
// PRESENT-80 and any future table cipher. The service behaves as if it
// reloaded its tables from (simulated) memory on every encryption, as a
// table-based implementation whose cache lines the attacker keeps evicting
// would: it reloads once per memory epoch (kernel::System::memory_epoch(),
// which moves on every mutation of simulated memory), which is
// observationally the same as reloading per block. A persistent flip in the
// table page is therefore visible in every subsequent ciphertext.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/table_cipher.hpp"
#include "kernel/system.hpp"

namespace explframe::attack {

/// Shape of the victim's crypto context allocation.
struct VictimConfig {
  /// Cipher key bytes; size must equal the cipher's key_size(). The
  /// campaign driver fills an empty key deterministically from its seed.
  std::vector<std::uint8_t> key;
  /// Byte offset of the S-box table within the table page (OpenSSL-style
  /// layout: table at some fixed, binary-known offset).
  std::uint32_t sbox_offset = 0x400;
  /// Total pages the service touches when installing its state; the table
  /// page is touched FIRST (it is the first field of the context struct).
  std::uint32_t data_pages = 4;
  /// Touch a warm-up region before installation so page-table nodes for the
  /// mmap area already exist and do not consume the planted frame.
  bool warm_up = true;

  bool operator==(const VictimConfig&) const = default;
};

/// The victim process: installs its table + round keys into demand-faulted
/// pages and encrypts through them (reloading from memory per epoch).
class VictimCipherService {
 public:
  VictimCipherService(kernel::System& system, std::uint32_t cpu,
                      const crypto::TableCipher& cipher,
                      const VictimConfig& config);

  /// Spawn the process and fault in the warm-up region (models the service
  /// having been running before the attack window opens).
  void start();

  /// Allocate the crypto context pages and write the S-box table + expanded
  /// key into them. This is the small allocation the attacker's planted
  /// frame is meant to satisfy.
  void install_tables();

  /// Encrypt one block (cipher block_size() bytes, checked exactly): a
  /// one-block encrypt_batch.
  void encrypt(std::span<const std::uint8_t> plaintext,
               std::span<std::uint8_t> ciphertext);

  /// Encrypt plaintexts.size() / block_size() concatenated blocks. The
  /// table + round keys are snapshotted through ONE pair of mem_reads and
  /// decoded into a cached crypto::EncryptContext; the cache is revalidated
  /// against kernel::System::memory_epoch(), so any mutation of simulated
  /// memory between batches (a hammer flip, a defence intervention, another
  /// task's write) invalidates the snapshot and the next batch re-reads.
  /// The ciphertexts are byte-identical to reloading both before every
  /// block (the test-side reload oracle, tests/attack/reference_campaign.hpp).
  /// Note: DRAM read-side diagnostics (e.g. the ECC corrected-bit counter)
  /// scale with reads actually performed — one read pair per epoch, not per
  /// block; ciphertexts and reports are unaffected.
  void encrypt_batch(std::span<const std::uint8_t> plaintexts,
                     std::span<std::uint8_t> ciphertexts);

  std::uint64_t encryptions() const noexcept { return encryptions_; }

  // ---- Ground truth for the harness --------------------------------------
  kernel::Task& task() noexcept { return *task_; }
  vm::VirtAddr table_page_va() const noexcept { return table_va_; }
  /// Page holding the serialized round keys (from offset 0).
  vm::VirtAddr keys_page_va() const noexcept { return keys_va_; }
  const VictimConfig& config() const noexcept { return config_; }
  const crypto::TableCipher& cipher() const noexcept { return *cipher_; }
  /// Current stored table bytes (may contain the fault; dead bits raw).
  std::vector<std::uint8_t> read_table();
  /// True if any live bit of the stored table differs from the canonical
  /// table (dead-bit corruption is invisible to the implementation).
  bool table_corrupted();

 private:
  kernel::System* system_;
  std::uint32_t cpu_;
  const crypto::TableCipher* cipher_;
  VictimConfig config_;
  kernel::Task* task_ = nullptr;
  vm::VirtAddr region_va_ = 0;
  vm::VirtAddr table_va_ = 0;  ///< Page holding the S-box table.
  vm::VirtAddr keys_va_ = 0;   ///< Page holding the round keys.
  std::uint64_t encryptions_ = 0;
  // Reload scratch (sized once per cipher) so a re-snapshot does not
  // allocate.
  std::vector<std::uint8_t> table_scratch_;
  std::vector<std::uint8_t> rk_scratch_;
  // Batched-path snapshot cache: decoded (round keys, table) plus the
  // memory epoch it was read at. Invalid whenever the epoch moved.
  std::unique_ptr<crypto::EncryptContext> batch_ctx_;
  std::uint64_t batch_epoch_ = 0;
};

}  // namespace explframe::attack
