// fault::Analysis — one interface over the key-recovery engines (PFA-AES,
// PFA-PRESENT, DFA-AES), so the campaign driver and the benches can feed
// ciphertexts, watch the remaining key space collapse and ask for the master
// key without knowing which cryptanalysis is running underneath.
//
// PFA engines consume bare faulty ciphertexts of unknown plaintexts (what a
// persistent Rowhammer flip naturally provides). The DFA engine instead
// consumes (correct, faulty) ciphertext pairs of the same plaintext — it
// exists as the transient-fault comparison point and reports wants_pairs().
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
  kDfa,               ///< Differential fault analysis (AES only; needs pairs).
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
/// ask whether the key is pinned. Adapters wrap AesPfa/PresentPfa/AesDfa
/// behind one seam so campaigns stay cipher-agnostic.
class Analysis {
 public:
  virtual ~Analysis() = default;

  virtual AnalysisKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// True for engines that need (correct, faulty) pairs instead of bare
  /// faulty ciphertexts (DFA).
  virtual bool wants_pairs() const noexcept { return false; }
  /// True for engines that need one known plaintext/ciphertext pair to
  /// finish (PRESENT's residual key-schedule search).
  virtual bool wants_known_pair() const noexcept { return false; }
  /// Provide the known pair (blocks in the cipher's byte layout). No-op for
  /// engines that do not need one.
  virtual void set_known_pair(std::span<const std::uint8_t> plaintext,
                              std::span<const std::uint8_t> ciphertext);

  /// Feed ciphertexts.size() / block_size concatenated faulty ciphertexts
  /// in one call — the only absorb engines implement. Invalid on
  /// wants_pairs() engines.
  virtual void add_ciphertext_batch(std::span<const std::uint8_t> ciphertexts,
                                    std::size_t block_size) = 0;
  /// Feed one faulty ciphertext: a one-block add_ciphertext_batch.
  void add_ciphertext(std::span<const std::uint8_t> ciphertext) {
    add_ciphertext_batch(ciphertext, ciphertext.size());
  }
  /// Feed one (correct, faulty) pair. Returns false if the pair is
  /// inconsistent with the engine's fault model. Default: unsupported.
  virtual bool add_pair(std::span<const std::uint8_t> correct,
                        std::span<const std::uint8_t> faulty);

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
/// combination is supported (kDfa and kPfaMaxLikelihood are AES-only).
std::unique_ptr<Analysis> make_analysis(AnalysisKind kind,
                                        const crypto::TableCipher& cipher,
                                        const FaultModel& fault);

}  // namespace explframe::fault
