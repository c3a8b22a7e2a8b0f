// fault::Analysis — one interface over the key-recovery engines (PFA-AES,
// PFA-PRESENT), so the campaign driver and the benches can feed
// ciphertexts, watch the remaining key space collapse and ask for the master
// key without knowing which cryptanalysis is running underneath.
//
// Both engines consume bare faulty ciphertexts of unknown plaintexts (what
// a persistent Rowhammer flip naturally provides). DFA, which needs
// (correct, faulty) pairs of one plaintext, is no campaign analysis: the
// `fault-techniques` experiment drives fault::AesDfa directly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/table_cipher.hpp"

namespace explframe::fault {

/// Which key-recovery statistic a campaign runs over harvested
/// ciphertexts.
enum class AnalysisKind {
  kPfaMissingValue,   ///< Persistent fault, missing-value statistic.
  kPfaMaxLikelihood,  ///< Persistent fault, frequency-peak statistic
                      ///< (AES only; PRESENT always uses missing-value).
};

/// The persistent table fault being analysed, as the template phase knows
/// it: stored entry `table_index` has `mask` XORed in, erasing canonical
/// S-box output `v` and doubling `v_new`.
struct FaultModel {
  std::uint16_t table_index = 0;
  std::uint8_t mask = 0;
  std::uint8_t v = 0;
  std::uint8_t v_new = 0;
};

/// Derive the fault model for `cipher` from a flip at table entry `index`,
/// bit `bit` (only live bits produce a meaningful model).
FaultModel fault_model_for(const crypto::TableCipher& cipher,
                           std::size_t index, std::uint8_t bit) noexcept;

/// Cipher-generic key-recovery interface: feed harvested ciphertexts,
/// ask whether the key is pinned. Adapters wrap AesPfa/PresentPfa behind
/// one seam so campaigns stay cipher-agnostic.
class Analysis {
 public:
  virtual ~Analysis() = default;

  virtual AnalysisKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// True for engines that need one known plaintext/ciphertext pair to
  /// finish (PRESENT's residual key-schedule search).
  virtual bool wants_known_pair() const noexcept { return false; }
  /// Provide the known pair (blocks in the cipher's byte layout). No-op for
  /// engines that do not need one.
  virtual void set_known_pair(std::span<const std::uint8_t> plaintext,
                              std::span<const std::uint8_t> ciphertext);

  /// Feed ciphertexts.size() / block_size concatenated faulty ciphertexts
  /// in one call — the only absorb engines implement.
  virtual void add_ciphertext_batch(std::span<const std::uint8_t> ciphertexts,
                                    std::size_t block_size) = 0;
  /// Feed one faulty ciphertext: a one-block add_ciphertext_batch.
  void add_ciphertext(std::span<const std::uint8_t> ciphertext) {
    add_ciphertext_batch(ciphertext, ciphertext.size());
  }

  virtual std::size_t ciphertext_count() const noexcept = 0;

  /// log2 of the key space still consistent with the data fed so far.
  virtual double remaining_keyspace_log2() const = 0;

  /// Attempt full master-key recovery; key bytes on success.
  virtual std::optional<std::vector<std::uint8_t>> recover_key() = 0;

  /// Brute-force candidates tried by the last successful recover_key()
  /// (PRESENT's <= 2^16 residual search; 0 elsewhere).
  virtual std::uint32_t residual_search() const noexcept { return 0; }

  virtual void reset() = 0;
};

/// Build the analysis engine for (kind, cipher, fault). Checks that the
/// combination is supported (kPfaMaxLikelihood is AES-only).
std::unique_ptr<Analysis> make_analysis(AnalysisKind kind,
                                        const crypto::TableCipher& cipher,
                                        const FaultModel& fault);

}  // namespace explframe::fault
