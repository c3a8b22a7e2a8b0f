// Differential Fault Analysis of AES-128 (Piret–Quisquater style, round-9
// single-byte fault). Implemented as the *transient*-fault comparison point
// of the `fault-techniques` experiment: DFA needs pairs of (correct,
// faulty) ciphertexts of the SAME plaintext and a precisely timed fault;
// PFA (the paper's choice) needs only faulty ciphertexts of arbitrary
// unknown plaintexts — which is what a persistent Rowhammer flip naturally
// provides.
//
// Fault model: an unknown byte difference is injected into one state byte
// at the entry of round 9. After SubBytes/ShiftRows/MixColumns it spreads
// to one column; the last round scatters the column across 4 ciphertext
// bytes. For each hypothesis (faulted row r, post-SubBytes difference d)
// the column difference pattern is MC(d * e_r); inverting the final
// SubBytes per byte yields last-round-key candidates, and intersecting the
// candidate sets across pairs pins the four key bytes of the column.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "crypto/aes128.hpp"

namespace explframe::fault {

/// Differential fault analysis on AES-128: correct/faulty ciphertext
/// pairs under a known single-byte round-9 fault narrow the last round
/// key column by column.
class AesDfa {
 public:
  using Block = crypto::Aes128::Block;
  using RoundKey = crypto::Aes128::RoundKey;

  /// Add one (correct, faulty) ciphertext pair for the same plaintext.
  /// Returns false if the pair does not look like a single-column round-9
  /// fault (wrong number / pattern of differing bytes).
  bool add_pair(const Block& correct, const Block& faulty);

  std::size_t pairs_for_column(std::size_t col) const;

  /// Unique K10 once every column has exactly one surviving tuple (the
  /// master key follows by Aes128::master_key_from_round10).
  std::optional<RoundKey> recover_round10() const;

  /// Ciphertext byte positions affected by a fault that lands in MC input
  /// column `col` of round 9 (row order 0..3).
  static std::array<std::size_t, 4> positions_for_column(std::size_t col);

 private:
  // cand_[col] = surviving tuples; empty set + seen_[col]==0 means "no data
  // yet"; empty set + seen_[col]>0 means contradiction.
  std::array<std::set<std::array<std::uint8_t, 4>>, 4> cand_{};
  std::array<std::size_t, 4> seen_{};
};

}  // namespace explframe::fault
