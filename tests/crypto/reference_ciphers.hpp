// Test-only reference cipher forms that no shipped binary runs.
//
// The simulator only ever encrypts, and always through a table it can
// fault (Aes128::encrypt_with_sbox, Aes128T::encrypt with explicit tables,
// Present80::encrypt_with_sbox / encrypt_with_sp). The tests still need:
//
//   * the inverse ciphers, as round-trip oracles (aes_decrypt,
//     present_decrypt, present_inv_sbox);
//   * textbook PRESENT-80 encryption written from the specification, as
//     the oracle for the paper's test vectors and for the pluggable-table
//     paths (present_encrypt);
//   * the canonical T-tables and the canonical T-table encryption
//     (aes_canonical_tables, aes_ttable_encrypt).
//
// NEVER include this from src/ — like tests/dram/reference_dram.hpp it
// exists so the production paths stay testable, not so it stays usable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes128.hpp"
#include "crypto/aes128_ttable.hpp"
#include "crypto/present80.hpp"

namespace explframe::crypto::reference {

// ---- AES-128 ---------------------------------------------------------------

/// FIPS-197 InvCipher (§5.3) over the canonical inverse S-box. The state
/// is column-major (state[r + 4c]), as in Aes128.
inline Aes128::Block aes_decrypt(const Aes128::Block& ciphertext,
                                 const Aes128::RoundKeys& rk) {
  const auto& inv = Aes128::inv_sbox();
  Aes128::Block s = ciphertext;
  const auto add_round_key = [&s](const Aes128::RoundKey& k) {
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= k[i];
  };
  // InvShiftRows followed by InvSubBytes (they commute).
  const auto inv_shift_sub = [&s, &inv] {
    const Aes128::Block t = s;
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c)
        s[r + 4 * ((c + r) % 4)] = inv[t[r + 4 * c]];
  };
  const auto inv_mix_columns = [&s] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[4 * c];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = Aes128::gmul(a0, 14) ^ Aes128::gmul(a1, 11) ^
               Aes128::gmul(a2, 13) ^ Aes128::gmul(a3, 9);
      col[1] = Aes128::gmul(a0, 9) ^ Aes128::gmul(a1, 14) ^
               Aes128::gmul(a2, 11) ^ Aes128::gmul(a3, 13);
      col[2] = Aes128::gmul(a0, 13) ^ Aes128::gmul(a1, 9) ^
               Aes128::gmul(a2, 14) ^ Aes128::gmul(a3, 11);
      col[3] = Aes128::gmul(a0, 11) ^ Aes128::gmul(a1, 13) ^
               Aes128::gmul(a2, 9) ^ Aes128::gmul(a3, 14);
    }
  };
  add_round_key(rk[10]);
  inv_shift_sub();
  for (std::size_t round = 9; round >= 1; --round) {
    add_round_key(rk[round]);
    inv_mix_columns();
    inv_shift_sub();
  }
  add_round_key(rk[0]);
  return s;
}

/// The T-tables of the canonical S-box.
inline const Aes128T::Tables& aes_canonical_tables() {
  static const Aes128T::Tables tables = Aes128T::derive_tables(Aes128::sbox());
  return tables;
}

/// T-table encryption with the canonical tables and S-box.
inline Aes128::Block aes_ttable_encrypt(const Aes128::Block& plaintext,
                                        const Aes128::RoundKeys& rk) {
  return Aes128T::encrypt(plaintext, rk, aes_canonical_tables(),
                          Aes128::sbox());
}

// ---- PRESENT-80 ------------------------------------------------------------

/// The inverse of Present80::sbox().
inline const std::array<std::uint8_t, 16>& present_inv_sbox() {
  static const std::array<std::uint8_t, 16> inv = [] {
    std::array<std::uint8_t, 16> out{};
    for (std::size_t i = 0; i < 16; ++i)
      out[Present80::sbox()[i]] = static_cast<std::uint8_t>(i);
    return out;
  }();
  return inv;
}

/// Apply a 16-entry S-box to every nibble of `state`.
inline std::uint64_t present_sbox_layer(
    std::uint64_t state, const std::array<std::uint8_t, 16>& sbox) {
  std::uint64_t out = 0;
  for (int i = 0; i < 16; ++i)
    out |= std::uint64_t{sbox[(state >> (4 * i)) & 0xF]} << (4 * i);
  return out;
}

/// PRESENT-80 encryption as the specification writes it (Bogdanov et al.,
/// CHES 2007): 31 rounds of addRoundKey, sBoxLayer and pLayer with the
/// canonical S-box, then the final whitening key.
inline std::uint64_t present_encrypt(std::uint64_t plaintext,
                                     const Present80::RoundKeys& rk) {
  std::uint64_t state = plaintext;
  for (std::size_t round = 0; round < 31; ++round)
    state = Present80::p_layer(
        present_sbox_layer(state ^ rk[round], Present80::sbox()));
  return state ^ rk[31];
}

/// The inverse of present_encrypt.
inline std::uint64_t present_decrypt(std::uint64_t ciphertext,
                                     const Present80::RoundKeys& rk) {
  std::uint64_t state = ciphertext ^ rk[31];
  for (std::size_t round = 31; round-- > 0;)
    state = present_sbox_layer(Present80::p_layer_inv(state),
                               present_inv_sbox()) ^
            rk[round];
  return state;
}

}  // namespace explframe::crypto::reference
