// T-table AES-128 — the classic 32-bit-word software implementation
// (OpenSSL's aes_core style): rounds 1..9 are four table lookups + XORs per
// column using Te0..Te3 (1 KiB each), the last round uses the plain S-box.
//
// Relevance to the paper: this is the implementation shape whose tables a
// real victim keeps in writable(-ish) memory pages — the 4 KiB of Te tables
// fill exactly one page frame, which is why steering a single vulnerable
// frame under the victim suffices. A flip in any Te byte perturbs
// MixColumns-multiplied S-box outputs in every round it is used.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"

namespace explframe::crypto {

/// T-table AES-128: the lookup-table implementation the paper attacks —
/// round transforms folded into four 1 KiB tables whose entries live in
/// DRAM and can be flipped by Rowhammer.
class Aes128T {
 public:
  using Block = Aes128::Block;
  using RoundKeys = Aes128::RoundKeys;

  /// The four encryption tables, each 256 words:
  ///   Te0[x] = (2*S[x], S[x], S[x], 3*S[x])  and rotations thereof.
  struct Tables {
    std::array<std::uint32_t, 256> te0, te1, te2, te3;
  };

  /// Derive the tables from an S-box (canonical or faulted).
  static Tables derive_tables(std::span<const std::uint8_t, 256> sbox);

  /// Encrypt with the given tables (rounds 1-9) and S-box (final round).
  static Block encrypt(const Block& plaintext, const RoundKeys& rk,
                       const Tables& tables,
                       std::span<const std::uint8_t, 256> sbox);
};

}  // namespace explframe::crypto
