// PRESENT-80 (Bogdanov et al., CHES 2007): 64-bit block, 80-bit key,
// 31 rounds. Included as the second block cipher the title's plural
// promises: its 4-bit S-box makes an interesting contrast for persistent
// fault analysis (16-entry table, nibble-wise key recovery).
//
// As with Aes128, the S-box is pluggable so that a flipped table bit in the
// victim's memory produces genuinely faulty ciphertexts.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace explframe::crypto {

/// PRESENT-80 ultra-lightweight block cipher (64-bit block, 31 rounds),
/// with the 16-byte packed S-box table variant targeted by the PRESENT
/// persistent-fault campaign.
class Present80 {
 public:
  using Block = std::uint64_t;
  /// 80-bit key, big-endian bytes (key[0] = most significant).
  using Key = std::array<std::uint8_t, 10>;
  /// Round keys K1..K32 (K32 is the final whitening key).
  using RoundKeys = std::array<std::uint64_t, 32>;

  static const std::array<std::uint8_t, 16>& sbox() noexcept;

  static RoundKeys expand_key(const Key& key) noexcept;

  /// The key schedule run backwards: from the round-32 register (K32 in its
  /// top 64 bits, `low` below), one inverse walk writes every round key it
  /// passes into `rk` (rk[r-1] = top 64 bits of register r, so rk[31] =
  /// `k32`) and returns the master key it ends on. `rk` then equals
  /// expand_key() of that key — without a forward pass.
  static Key invert_key_schedule(std::uint64_t k32, std::uint16_t low,
                                 RoundKeys& rk) noexcept;

  /// The residual key search of PRESENT PFA: the first `low` in 0..0xFFFF,
  /// in ascending order, whose round-32 register K32 || low walks back to a
  /// master key that encrypts `plaintext` to `ciphertext` under `table`
  /// (masked on use, as encrypt_with_sbox does), or nullopt if none does.
  /// Bitsliced: 256 candidates per pass, one lane each, through a fixed
  /// S-box circuit plus one correction term per entry where the masked
  /// table differs from the real S-box — exact for any table.
  static std::optional<std::uint16_t> find_register_low(
      std::uint64_t k32, Block plaintext, Block ciphertext,
      std::span<const std::uint8_t, 16> table) noexcept;

  /// Encrypt with a caller-supplied (possibly faulty) S-box table.
  static Block encrypt_with_sbox(
      Block plaintext, const RoundKeys& rk,
      std::span<const std::uint8_t, 16> table) noexcept;

  /// Combined sBoxLayer+pLayer lookup tables: SP[i][b] is the pLayer image
  /// of byte value b substituted through `table` at byte position i, so one
  /// round becomes eight table XORs instead of sixteen nibble substitutions
  /// plus a 64-step bit permutation. Exact by linearity of pLayer over
  /// disjoint bit sets — encrypt_with_sp is byte-identical to
  /// encrypt_with_sbox over the same table (differentially tested). Derived
  /// once per harvest snapshot by the batched EncryptContext.
  using SpTables = std::array<std::array<std::uint64_t, 256>, 8>;
  static SpTables derive_sp_tables(
      std::span<const std::uint8_t, 16> table) noexcept;

  /// encrypt_with_sbox through precomputed SP tables (same table).
  static Block encrypt_with_sp(Block plaintext, const RoundKeys& rk,
                               const SpTables& sp) noexcept;

  /// Bit permutation pLayer and its inverse (exposed for the PFA attack,
  /// which needs P^-1 to make nibble positions independent).
  static std::uint64_t p_layer(std::uint64_t s) noexcept;
  static std::uint64_t p_layer_inv(std::uint64_t s) noexcept;
};

}  // namespace explframe::crypto
