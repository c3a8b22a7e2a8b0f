// crypto::TableCipher — the cipher-agnostic seam of the attack pipeline.
//
// ExplFrame only cares about three properties of the victim's cipher:
//   * it keeps an S-box table at a known offset of a memory page (the flip
//     target window, with per-entry live bits);
//   * its key schedule can be expanded once and serialized into the pages
//     the victim installs;
//   * it can encrypt blocks through a caller-supplied (possibly faulty)
//     stored table, decoded once into an EncryptContext, so a persistent
//     flip in the stored table yields genuinely faulty ciphertexts.
//
// Everything else — templating's "usable flip" test, the victim service's
// table installation, the campaign driver — is written against this
// interface, so adding a cipher is one adapter class, not a new attack.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace explframe::crypto {

/// The ciphers the simulation ships adapters for.
enum class CipherKind {
  kAes128,     ///< AES-128, 256-byte S-box table, 16-byte blocks/keys.
  kPresent80,  ///< PRESENT-80, 16-byte table (low nibbles live), 8-byte blocks.
};

const char* to_string(CipherKind kind) noexcept;

/// Opaque decoded encryption state for one (round keys, stored table)
/// snapshot: round keys unpacked from their serialized byte blob once, the
/// table decoded into the cipher's native lookup form once (AES additionally
/// derives its T-tables; PRESENT extracts the live nibbles). Built by
/// TableCipher::make_context and consumed by encrypt_batch, which would
/// otherwise redo that decode for every block of a harvest. Contexts are
/// immutable and cipher-specific; a context is only valid with the cipher
/// that created it.
class EncryptContext {
 public:
  virtual ~EncryptContext() = default;

  /// The cipher this context was decoded for (guards mismatched use).
  CipherKind kind() const noexcept { return kind_; }

 protected:
  explicit EncryptContext(CipherKind kind) noexcept : kind_(kind) {}

 private:
  CipherKind kind_;
};

/// The cipher-agnostic interface described in the file comment. Adapters
/// are stateless; get one from cipher_for().
class TableCipher {
 public:
  virtual ~TableCipher() = default;

  virtual CipherKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  // ---- Table geometry (templating + victim installation) ------------------
  /// Bytes the stored S-box table occupies in the victim's page.
  virtual std::size_t table_size() const noexcept = 0;
  /// The canonical (fault-free) stored table.
  virtual std::span<const std::uint8_t> canonical_table() const noexcept = 0;
  /// Bits of stored table entry `index` the implementation actually reads
  /// (PRESENT stores one 4-bit nibble per byte; a flip in a dead bit is
  /// harmless). Default: all eight bits live.
  virtual std::uint8_t live_bits(std::size_t index) const noexcept;

  /// Templating's "usable flip" test: the flip must land in a live bit and
  /// the canonical byte must store the opposite polarity, so the cell flips
  /// again once the victim's table occupies the frame. `to_one` is the
  /// observed flip direction (anti cell: 0 -> 1).
  bool usable_flip(std::size_t index, std::uint8_t bit,
                   bool to_one) const noexcept;

  // ---- Key / block shapes --------------------------------------------------
  virtual std::size_t key_size() const noexcept = 0;
  virtual std::size_t block_size() const noexcept = 0;
  /// Size of the serialized round-key blob the victim stores.
  virtual std::size_t round_key_size() const noexcept = 0;

  /// Expand `key` (key_size() bytes) into the serialized round-key blob
  /// (round_key_size() bytes) the victim writes into its pages.
  virtual void expand_key(std::span<const std::uint8_t> key,
                          std::span<std::uint8_t> round_keys) const = 0;

  // ---- Encryption through a stored table ----------------------------------
  /// Decode (round_keys, table) — the serialized round-key blob
  /// (round_key_size() bytes) and the stored S-box table (table_size()
  /// bytes, possibly faulty, dead bits raw) as the victim keeps them in its
  /// pages — into a reusable EncryptContext. Callers own cache invalidation
  /// (the victim service revalidates against the memory mutation epoch).
  virtual std::unique_ptr<EncryptContext> make_context(
      std::span<const std::uint8_t> round_keys,
      std::span<const std::uint8_t> table) const = 0;

  /// Encrypt plaintexts.size() / block_size() concatenated blocks through
  /// `ctx` in one virtual dispatch. Each block is bit-identical to
  /// Aes128::encrypt_with_sbox / Present80::encrypt_with_sbox over the
  /// stored bytes `ctx` was built from (PRESENT reading only the live low
  /// nibbles). `ctx` must come from this cipher's make_context.
  virtual void encrypt_batch(const EncryptContext& ctx,
                             std::span<const std::uint8_t> plaintexts,
                             std::span<std::uint8_t> ciphertexts) const = 0;
};

/// Stateless singleton adapter for `kind` (valid for the program lifetime).
/// CHECK-fails on an out-of-range enum value (e.g. a corrupted config cast
/// straight into CipherKind) instead of silently handing back AES.
const TableCipher& cipher_for(CipherKind kind) noexcept;

/// A uniformly random key for `cipher`, as the victim config stores it.
std::vector<std::uint8_t> random_key(const TableCipher& cipher,
                                     std::uint64_t seed);

}  // namespace explframe::crypto
