#include "fault/analysis.hpp"

#include <array>

#include "crypto/present80.hpp"
#include "fault/pfa_aes.hpp"
#include "fault/pfa_present.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace explframe::fault {

FaultModel fault_model_for(const crypto::TableCipher& cipher,
                           std::size_t index, std::uint8_t bit) noexcept {
  FaultModel f;
  f.table_index = static_cast<std::uint16_t>(index);
  f.mask = static_cast<std::uint8_t>((1u << bit) & cipher.live_bits(index));
  f.v = cipher.canonical_table()[index];
  f.v_new = static_cast<std::uint8_t>(f.v ^ f.mask);
  return f;
}

void Analysis::set_known_pair(std::span<const std::uint8_t> /*plaintext*/,
                              std::span<const std::uint8_t> /*ciphertext*/) {}

namespace {

std::uint64_t to_present_block(std::span<const std::uint8_t> bytes) {
  EXPLFRAME_CHECK(bytes.size() == 8);
  return le_bytes_to_u64(bytes);
}

class AesPfaAnalysis final : public Analysis {
 public:
  AesPfaAnalysis(PfaStrategy strategy, const FaultModel& fault)
      : strategy_(strategy), fault_(fault) {}

  AnalysisKind kind() const noexcept override {
    return strategy_ == PfaStrategy::kMissingValue
               ? AnalysisKind::kPfaMissingValue
               : AnalysisKind::kPfaMaxLikelihood;
  }
  const char* name() const noexcept override { return "PFA/AES-128"; }

  void add_ciphertext_batch(std::span<const std::uint8_t> cts,
                            std::size_t block_size) override {
    EXPLFRAME_CHECK(block_size == 16 && cts.size() % 16 == 0);
    pfa_.add_ciphertext_batch(cts);
  }
  std::size_t ciphertext_count() const noexcept override {
    return pfa_.ciphertext_count();
  }
  double remaining_keyspace_log2() const override {
    return pfa_.remaining_keyspace_log2(strategy_, fault_.v, fault_.v_new);
  }
  std::optional<std::vector<std::uint8_t>> recover_key() override {
    const auto key =
        pfa_.recover_master_key(strategy_, fault_.v, fault_.v_new);
    if (!key) return std::nullopt;
    return std::vector<std::uint8_t>(key->begin(), key->end());
  }
  void reset() override { pfa_.reset(); }

 private:
  PfaStrategy strategy_;
  FaultModel fault_;
  AesPfa pfa_;
};

class PresentPfaAnalysis final : public Analysis {
 public:
  explicit PresentPfaAnalysis(const FaultModel& fault) : fault_(fault) {
    // The attacker reconstructs the victim's faulty table from the template
    // (entry + bit) and the public canonical S-box — no victim reads.
    faulty_table_ = crypto::Present80::sbox();
    faulty_table_[fault_.table_index % 16] ^=
        static_cast<std::uint8_t>(fault_.mask & 0xF);
  }

  AnalysisKind kind() const noexcept override {
    return AnalysisKind::kPfaMissingValue;
  }
  const char* name() const noexcept override { return "PFA/PRESENT-80"; }
  bool wants_known_pair() const noexcept override { return true; }

  void set_known_pair(std::span<const std::uint8_t> pt,
                      std::span<const std::uint8_t> ct) override {
    known_pt_ = to_present_block(pt);
    known_ct_ = to_present_block(ct);
    have_pair_ = true;
  }

  void add_ciphertext_batch(std::span<const std::uint8_t> cts,
                            std::size_t block_size) override {
    EXPLFRAME_CHECK(block_size == 8 && cts.size() % 8 == 0);
    pfa_.add_ciphertext_batch(cts);
  }
  std::size_t ciphertext_count() const noexcept override {
    return pfa_.ciphertext_count();
  }
  double remaining_keyspace_log2() const override {
    // Nibble-wise K32 key space plus the 16 register bits PFA never sees
    // (resolved by the residual search in recover_key()).
    return pfa_.remaining_keyspace_log2(fault_.v) + 16.0;
  }
  std::optional<std::vector<std::uint8_t>> recover_key() override {
    if (!have_pair_ || !pfa_.recover_k32(fault_.v)) return std::nullopt;
    const auto result = pfa_.recover_master_key(
        fault_.v, known_pt_, known_ct_,
        std::span<const std::uint8_t, 16>(faulty_table_));
    if (!result) return std::nullopt;
    residual_ = result->search_tried;
    return std::vector<std::uint8_t>(result->key.begin(), result->key.end());
  }
  std::uint32_t residual_search() const noexcept override { return residual_; }
  void reset() override {
    pfa_.reset();
    residual_ = 0;
  }

 private:
  FaultModel fault_;
  std::array<std::uint8_t, 16> faulty_table_{};
  PresentPfa pfa_;
  std::uint64_t known_pt_ = 0;
  std::uint64_t known_ct_ = 0;
  bool have_pair_ = false;
  std::uint32_t residual_ = 0;
};

}  // namespace

std::unique_ptr<Analysis> make_analysis(AnalysisKind kind,
                                        const crypto::TableCipher& cipher,
                                        const FaultModel& fault) {
  const bool aes = cipher.kind() == crypto::CipherKind::kAes128;
  switch (kind) {
    case AnalysisKind::kPfaMissingValue:
      if (aes) return std::make_unique<AesPfaAnalysis>(
          PfaStrategy::kMissingValue, fault);
      return std::make_unique<PresentPfaAnalysis>(fault);
    case AnalysisKind::kPfaMaxLikelihood:
      EXPLFRAME_CHECK_MSG(aes, "max-likelihood PFA is AES-only");
      return std::make_unique<AesPfaAnalysis>(PfaStrategy::kMaxLikelihood,
                                              fault);
  }
  EXPLFRAME_CHECK_MSG(false, "unknown AnalysisKind");
  return nullptr;
}

}  // namespace explframe::fault
