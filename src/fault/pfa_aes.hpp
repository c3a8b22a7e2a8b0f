// Persistent Fault Analysis of AES-128 (Zhang et al., TCHES 2018 — the
// paper's reference [12]).
//
// Fault model: one S-box entry is persistently corrupted, S*(i0) = v' != v.
// The value v then never appears at the output of the last-round SubBytes,
// so ciphertext byte j never takes the value v ^ K10_j; conversely v'
// appears roughly twice as often as any other value. Collecting ciphertexts
// of (unknown, varied) plaintexts therefore reveals K10 byte-by-byte:
//
//   missing-value:  K10_j = (the value absent from byte j)  ^ v
//   max-likelihood: K10_j = (the most frequent value)       ^ v'
//
// ExplFrame gives the attacker v and v' for free: templating reports the
// flipped page offset and bit, which identify the corrupted table entry.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/aes128.hpp"

namespace explframe::fault {

/// The two persistent-fault statistics the paper evaluates for AES.
enum class PfaStrategy {
  kMissingValue,   ///< Exact once all 256 values would otherwise be seen
                   ///< (~2.3K ciphertexts; the standard PFA statistic).
  kMaxLikelihood,  ///< Frequency peak at v'. A simpler statistic that does
                   ///< not need the absent value, but pinning all 16 peaks
                   ///< simultaneously takes more data (~10K+).
};

/// Persistent fault analysis on AES-128: a faulted S-box entry skews the
/// last-round byte distribution; missing-value (or frequency-peak)
/// tallies over ciphertexts recover the last round key. Tallies are
/// incremental so batch harvests stay O(bytes), not O(rescans).
class AesPfa {
 public:
  using Block = crypto::Aes128::Block;
  using RoundKey = crypto::Aes128::RoundKey;

  AesPfa() noexcept { reset(); }

  void add_ciphertext(const Block& c) noexcept;
  /// Absorb ciphertexts.size() / 16 concatenated blocks — the harvest
  /// loop's batched entry point (one call per chunk instead of per block).
  void add_ciphertext_batch(std::span<const std::uint8_t> ciphertexts) noexcept;
  std::size_t ciphertext_count() const noexcept { return count_; }
  void reset() noexcept;

  /// Candidate K10 bytes for each position. `v` is the vanished S-box
  /// output value; `v_new` its replacement (used by kMaxLikelihood).
  /// (Diagnostic full rescan; the recovery checks below read the
  /// incremental tallies instead.)
  std::array<std::vector<std::uint8_t>, 16> candidates(
      PfaStrategy strategy, std::uint8_t v, std::uint8_t v_new) const;

  /// log2 of the number of consistent K10 values (0 when unique;
  /// +inf-like 128.0 when some byte has no candidate yet). O(16) from the
  /// incremental zero/max tallies — not a rescan.
  double remaining_keyspace_log2(PfaStrategy strategy, std::uint8_t v,
                                 std::uint8_t v_new) const;

  /// The unique K10 if every byte has exactly one candidate. O(16) from the
  /// incremental tallies (amortized O(1) per harvested ciphertext).
  std::optional<RoundKey> recover_round10(PfaStrategy strategy, std::uint8_t v,
                                          std::uint8_t v_new) const;

  /// Full pipeline: K10 -> master key via inverse key schedule.
  std::optional<crypto::Aes128::Key> recover_master_key(
      PfaStrategy strategy, std::uint8_t v, std::uint8_t v_new) const;

  /// Frequency table of byte position j (diagnostics / bench output).
  const std::array<std::uint32_t, 256>& frequencies(std::size_t j) const {
    return freq_[j];
  }

 private:
  void absorb(const std::uint8_t* c) noexcept;

  std::array<std::array<std::uint32_t, 256>, 16> freq_{};
  std::size_t count_ = 0;
  // Incremental tallies, maintained per absorbed byte so the periodic key
  // checks never rescan the 16x256 frequency table:
  //   zero_count_[j]  — #values never seen at byte j (missing-value cands);
  //   zero_sum_[j]    — sum of those values (identifies THE zero when 1);
  //   max_count_[j]   — highest frequency at byte j;
  //   num_at_max_[j]  — #values tied at max (max-likelihood cands);
  //   argmax_[j]      — a value at max (unique iff num_at_max_[j] == 1).
  std::array<std::uint32_t, 16> zero_count_{};
  std::array<std::uint32_t, 16> zero_sum_{};
  std::array<std::uint32_t, 16> max_count_{};
  std::array<std::uint32_t, 16> num_at_max_{};
  std::array<std::uint8_t, 16> argmax_{};
};

}  // namespace explframe::fault
