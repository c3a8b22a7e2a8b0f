// Persistent Fault Analysis of PRESENT-80.
//
// The last round is  C = P(S*(x)) ^ K32.  Because the bit permutation P is
// linear over XOR,  P^-1(C) = S*(x) ^ P^-1(K32): in the permuted domain the
// 16 nibbles are independent, so the AES missing-value argument applies
// nibble-wise to L = P^-1(K32):
//
//   L_j = (value absent from nibble j of P^-1(C))  ^  v
//
// where v is the S-box output value erased by the fault. K32 = P(L) yields
// 64 of the 80 key-register bits; the remaining 16 bits are brute-forced
// with one known plaintext/ciphertext pair by the bitsliced
// Present80::find_register_low (reported as residual work).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/present80.hpp"

namespace explframe::fault {

/// Persistent fault analysis on PRESENT-80: missing-nibble statistics
/// over the final round recover 64 round-key bits, and the remaining
/// 16 bits fall to the residual key-schedule search.
class PresentPfa {
 public:
  PresentPfa() noexcept { reset(); }

  void add_ciphertext(std::uint64_t c) noexcept;
  /// Absorb ciphertexts.size() / 8 concatenated little-endian blocks — the
  /// harvest loop's batched entry point.
  void add_ciphertext_batch(std::span<const std::uint8_t> ciphertexts) noexcept;
  std::size_t ciphertext_count() const noexcept { return count_; }
  void reset() noexcept;

  /// Candidate values for each nibble of L = P^-1(K32). (Diagnostic full
  /// rescan; the recovery checks below read the incremental tallies.)
  std::array<std::vector<std::uint8_t>, 16> candidates(std::uint8_t v) const;

  /// O(16) from the incremental zero tallies — not a rescan.
  double remaining_keyspace_log2(std::uint8_t v) const;

  /// The unique last-round key K32 if every nibble is pinned. O(16) from
  /// the incremental tallies (amortized O(1) per harvested ciphertext).
  std::optional<std::uint64_t> recover_k32(std::uint8_t v) const;

  /// Recover the full 80-bit master key: K32 from PFA, then
  /// Present80::find_register_low over the undetermined low register bits,
  /// checked against one known plaintext/ciphertext pair (encrypted with
  /// the *faulty* S-box, since the fault is persistent), then one schedule
  /// inversion. Candidates count as run low = 0, 1, ... and the first
  /// match wins; returns its key and the number of candidates tried
  /// (low + 1, the residual brute-force work).
  struct MasterKeyResult {
    crypto::Present80::Key key{};
    std::uint32_t search_tried = 0;
  };
  std::optional<MasterKeyResult> recover_master_key(
      std::uint8_t v, std::uint64_t known_plaintext,
      std::uint64_t known_ciphertext,
      std::span<const std::uint8_t, 16> faulty_sbox) const;

 private:
  std::array<std::array<std::uint32_t, 16>, 16> freq_{};
  std::size_t count_ = 0;
  // Incremental tallies (see AesPfa): #nibble values never seen at position
  // j, and their sum (identifying THE missing value once unique).
  std::array<std::uint32_t, 16> zero_count_{};
  std::array<std::uint32_t, 16> zero_sum_{};
};

}  // namespace explframe::fault
