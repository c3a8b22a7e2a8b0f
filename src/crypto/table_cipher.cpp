#include "crypto/table_cipher.hpp"

#include <algorithm>
#include <array>

#include "crypto/aes128.hpp"
#include "crypto/aes128_aesni.hpp"
#include "crypto/aes128_ttable.hpp"
#include "crypto/present80.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace explframe::crypto {

const char* to_string(CipherKind kind) noexcept {
  switch (kind) {
    case CipherKind::kAes128:
      return "aes128";
    case CipherKind::kPresent80:
      return "present80";
  }
  return "?";
}

std::uint8_t TableCipher::live_bits(std::size_t /*index*/) const noexcept {
  return 0xFF;
}

bool TableCipher::usable_flip(std::size_t index, std::uint8_t bit,
                              bool to_one) const noexcept {
  if (index >= table_size() || bit >= 8) return false;
  if (((live_bits(index) >> bit) & 1u) == 0) return false;
  const bool bit_set = ((canonical_table()[index] >> bit) & 1u) != 0;
  // An anti cell (flips 0 -> 1) needs the canonical bit clear; a true cell
  // (1 -> 0) needs it set.
  return to_one ? !bit_set : bit_set;
}

namespace {

// Decoded AES snapshot: unpacked round keys plus the fastest encryption
// path the stored S-box admits. A table that is canonical, or canonical
// with exactly one byte XOR-faulted (the paper's persistent-fault model),
// runs on hardware AES-NI with the SIMD fault correction; anything else
// falls back to T-tables derived from the stored bytes. Both are
// bit-identical to Aes128::encrypt_with_sbox over the source table
// (asserted by tests/crypto/aes128_ttable_test.cpp and
// tests/crypto/aes128_aesni_test.cpp), so the batch path changes no
// ciphertext byte.
class Aes128Context final : public EncryptContext {
 public:
  Aes128Context(std::span<const std::uint8_t> round_keys,
                std::span<const std::uint8_t> table)
      : EncryptContext(CipherKind::kAes128) {
    for (std::size_t r = 0; r < 11; ++r)
      for (std::size_t i = 0; i < 16; ++i) rk_[r][i] = round_keys[16 * r + i];
    std::copy(table.begin(), table.end(), sbox_.begin());
    const auto& canonical = Aes128::sbox();
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < 256 && diffs <= 1; ++i) {
      if (sbox_[i] != canonical[i]) {
        ++diffs;
        fault_x0_ = static_cast<std::uint8_t>(i);
        fault_m_ = static_cast<std::uint8_t>(sbox_[i] ^ canonical[i]);
      }
    }
    use_ni_ = diffs <= 1 && Aes128Ni::available();
    if (diffs == 0) fault_m_ = 0;
    if (!use_ni_) tables_ = Aes128T::derive_tables(sbox_);
  }

  Aes128::RoundKeys rk_{};
  std::array<std::uint8_t, 256> sbox_{};
  Aes128T::Tables tables_{};
  bool use_ni_ = false;
  std::uint8_t fault_x0_ = 0;  ///< Faulted table index (when fault_m_ != 0).
  std::uint8_t fault_m_ = 0;   ///< XOR mask of the fault (0 = canonical).
};

// Decoded PRESENT snapshot: round keys as native 64-bit words, live nibbles
// extracted from the stored bytes once, and the combined sBoxLayer+pLayer
// byte tables derived from them (turning each round's 64-step bit
// permutation into eight XORed lookups — exact, see
// Present80::derive_sp_tables).
class Present80Context final : public EncryptContext {
 public:
  Present80Context(std::span<const std::uint8_t> round_keys,
                   std::span<const std::uint8_t> table)
      : EncryptContext(CipherKind::kPresent80) {
    for (std::size_t r = 0; r < 32; ++r)
      rk_[r] = le_bytes_to_u64(round_keys.subspan(8 * r, 8));
    for (std::size_t i = 0; i < 16; ++i)
      nibbles_[i] = static_cast<std::uint8_t>(table[i] & 0xF);
    sp_ = Present80::derive_sp_tables(nibbles_);
  }

  Present80::RoundKeys rk_{};
  std::array<std::uint8_t, 16> nibbles_{};
  Present80::SpTables sp_{};
};

class Aes128TableCipher final : public TableCipher {
 public:
  CipherKind kind() const noexcept override { return CipherKind::kAes128; }
  const char* name() const noexcept override { return "AES-128"; }

  std::size_t table_size() const noexcept override { return 256; }
  std::span<const std::uint8_t> canonical_table() const noexcept override {
    return Aes128::sbox();
  }

  std::size_t key_size() const noexcept override { return 16; }
  std::size_t block_size() const noexcept override { return 16; }
  std::size_t round_key_size() const noexcept override { return 11 * 16; }

  void expand_key(std::span<const std::uint8_t> key,
                  std::span<std::uint8_t> round_keys) const override {
    EXPLFRAME_CHECK(key.size() == key_size());
    EXPLFRAME_CHECK(round_keys.size() == round_key_size());
    Aes128::Key k;
    std::copy(key.begin(), key.end(), k.begin());
    const auto rk = Aes128::expand_key(k);
    for (std::size_t r = 0; r < 11; ++r)
      for (std::size_t i = 0; i < 16; ++i) round_keys[16 * r + i] = rk[r][i];
  }

  std::unique_ptr<EncryptContext> make_context(
      std::span<const std::uint8_t> round_keys,
      std::span<const std::uint8_t> table) const override {
    EXPLFRAME_CHECK(round_keys.size() == round_key_size());
    EXPLFRAME_CHECK(table.size() == 256);
    return std::make_unique<Aes128Context>(round_keys, table);
  }

  void encrypt_batch(const EncryptContext& ctx,
                     std::span<const std::uint8_t> plaintexts,
                     std::span<std::uint8_t> ciphertexts) const override {
    EXPLFRAME_CHECK(ctx.kind() == CipherKind::kAes128);
    EXPLFRAME_CHECK(plaintexts.size() == ciphertexts.size());
    EXPLFRAME_CHECK(plaintexts.size() % 16 == 0);
    const auto& c = static_cast<const Aes128Context&>(ctx);
    if (c.use_ni_) {
      Aes128Ni::encrypt_blocks(plaintexts.data(), ciphertexts.data(),
                               plaintexts.size() / 16, c.rk_, c.fault_x0_,
                               c.fault_m_);
      return;
    }
    const std::span<const std::uint8_t, 256> sbox(c.sbox_);
    for (std::size_t off = 0; off < plaintexts.size(); off += 16) {
      Aes128::Block pt;
      std::copy_n(plaintexts.begin() + off, 16, pt.begin());
      const Aes128::Block ct = Aes128T::encrypt(pt, c.rk_, c.tables_, sbox);
      std::copy(ct.begin(), ct.end(), ciphertexts.begin() + off);
    }
  }
};

class Present80TableCipher final : public TableCipher {
 public:
  CipherKind kind() const noexcept override { return CipherKind::kPresent80; }
  const char* name() const noexcept override { return "PRESENT-80"; }

  std::size_t table_size() const noexcept override { return 16; }
  std::span<const std::uint8_t> canonical_table() const noexcept override {
    return Present80::sbox();
  }
  std::uint8_t live_bits(std::size_t /*index*/) const noexcept override {
    return 0x0F;  // one nibble stored per byte; the high nibble is dead
  }

  std::size_t key_size() const noexcept override { return 10; }
  std::size_t block_size() const noexcept override { return 8; }
  std::size_t round_key_size() const noexcept override { return 32 * 8; }

  void expand_key(std::span<const std::uint8_t> key,
                  std::span<std::uint8_t> round_keys) const override {
    EXPLFRAME_CHECK(key.size() == key_size());
    EXPLFRAME_CHECK(round_keys.size() == round_key_size());
    Present80::Key k;
    std::copy(key.begin(), key.end(), k.begin());
    const auto rk = Present80::expand_key(k);
    for (std::size_t r = 0; r < 32; ++r)
      u64_to_le_bytes(rk[r], round_keys.subspan(8 * r, 8));
  }

  std::unique_ptr<EncryptContext> make_context(
      std::span<const std::uint8_t> round_keys,
      std::span<const std::uint8_t> table) const override {
    EXPLFRAME_CHECK(round_keys.size() == round_key_size());
    EXPLFRAME_CHECK(table.size() == 16);
    return std::make_unique<Present80Context>(round_keys, table);
  }

  void encrypt_batch(const EncryptContext& ctx,
                     std::span<const std::uint8_t> plaintexts,
                     std::span<std::uint8_t> ciphertexts) const override {
    EXPLFRAME_CHECK(ctx.kind() == CipherKind::kPresent80);
    EXPLFRAME_CHECK(plaintexts.size() == ciphertexts.size());
    EXPLFRAME_CHECK(plaintexts.size() % 8 == 0);
    const auto& c = static_cast<const Present80Context&>(ctx);
    for (std::size_t off = 0; off < plaintexts.size(); off += 8) {
      const std::uint64_t pt = le_bytes_to_u64(plaintexts.subspan(off, 8));
      const std::uint64_t ct = Present80::encrypt_with_sp(pt, c.rk_, c.sp_);
      u64_to_le_bytes(ct, ciphertexts.subspan(off, 8));
    }
  }
};

}  // namespace

const TableCipher& cipher_for(CipherKind kind) noexcept {
  static const Aes128TableCipher aes;
  static const Present80TableCipher present;
  switch (kind) {
    case CipherKind::kAes128:
      return aes;
    case CipherKind::kPresent80:
      return present;
  }
  EXPLFRAME_CHECK_MSG(false, "cipher_for: invalid CipherKind");
  return aes;  // unreachable
}

std::vector<std::uint8_t> random_key(const TableCipher& cipher,
                                     std::uint64_t seed) {
  std::vector<std::uint8_t> key(cipher.key_size());
  Rng rng(seed);
  rng.fill_bytes(key);
  return key;
}

}  // namespace explframe::crypto
