#include "fault/pfa_present.hpp"

#include <cmath>

#include "support/bytes.hpp"
#include "support/check.hpp"

namespace explframe::fault {

using crypto::Present80;

void PresentPfa::add_ciphertext(std::uint64_t c) noexcept {
  const std::uint64_t d = Present80::p_layer_inv(c);
  for (std::size_t j = 0; j < 16; ++j) {
    const auto nib = static_cast<std::uint8_t>((d >> (4 * j)) & 0xF);
    if (++freq_[j][nib] == 1) {
      --zero_count_[j];
      zero_sum_[j] -= nib;
    }
  }
  ++count_;
}

void PresentPfa::add_ciphertext_batch(
    std::span<const std::uint8_t> ciphertexts) noexcept {
  EXPLFRAME_CHECK(ciphertexts.size() % 8 == 0);
  for (std::size_t off = 0; off < ciphertexts.size(); off += 8)
    add_ciphertext(le_bytes_to_u64(ciphertexts.subspan(off, 8)));
}

void PresentPfa::reset() noexcept {
  for (auto& f : freq_) f.fill(0);
  count_ = 0;
  zero_count_.fill(16);
  zero_sum_.fill(15 * 16 / 2);
}

std::array<std::vector<std::uint8_t>, 16> PresentPfa::candidates(
    std::uint8_t v) const {
  std::array<std::vector<std::uint8_t>, 16> out;
  for (std::size_t j = 0; j < 16; ++j) {
    for (std::uint8_t t = 0; t < 16; ++t)
      if (freq_[j][t] == 0)
        out[j].push_back(static_cast<std::uint8_t>(t ^ v));
  }
  return out;
}

double PresentPfa::remaining_keyspace_log2(std::uint8_t /*v*/) const {
  // Candidate-set sizes come straight off the incremental zero tallies (the
  // XOR with v permutes candidates without changing how many there are).
  double bits = 0.0;
  for (std::size_t j = 0; j < 16; ++j) {
    if (zero_count_[j] == 0) return 64.0;
    bits += std::log2(static_cast<double>(zero_count_[j]));
  }
  return bits;
}

std::optional<std::uint64_t> PresentPfa::recover_k32(std::uint8_t v) const {
  std::uint64_t l = 0;
  for (std::size_t j = 0; j < 16; ++j) {
    // Unique missing nibble: zero_sum_ then IS that nibble.
    if (zero_count_[j] != 1) return std::nullopt;
    l |= static_cast<std::uint64_t>((zero_sum_[j] ^ v) & 0xF) << (4 * j);
  }
  return Present80::p_layer(l);
}

std::optional<PresentPfa::MasterKeyResult> PresentPfa::recover_master_key(
    std::uint8_t v, std::uint64_t known_plaintext,
    std::uint64_t known_ciphertext,
    std::span<const std::uint8_t, 16> faulty_sbox) const {
  const auto k32 = recover_k32(v);
  if (!k32) return std::nullopt;
  const auto low = Present80::find_register_low(*k32, known_plaintext,
                                                known_ciphertext, faulty_sbox);
  if (!low) return std::nullopt;
  Present80::RoundKeys rk;
  return MasterKeyResult{Present80::invert_key_schedule(*k32, *low, rk),
                         static_cast<std::uint32_t>(*low) + 1};
}

}  // namespace explframe::fault
