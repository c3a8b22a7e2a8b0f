#include "fault/pfa_aes.hpp"

#include <cmath>
#include <cstdio>

#include "fault/injection.hpp"
#include "support/check.hpp"

namespace explframe::fault {

std::string describe(const SboxByteFault& fault) {
  // Direct formatting — this runs in logging/report paths, where the old
  // std::ostringstream (locale machinery + heap churn) was pure overhead.
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "S[0x%x] ^= 0x%x",
                              static_cast<unsigned>(fault.index),
                              static_cast<unsigned>(fault.mask));
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

void AesPfa::absorb(const std::uint8_t* c) noexcept {
  for (std::size_t j = 0; j < 16; ++j) {
    const std::uint8_t t = c[j];
    const std::uint32_t f = ++freq_[j][t];
    if (f == 1) {
      --zero_count_[j];
      zero_sum_[j] -= t;
    }
    if (f > max_count_[j]) {
      max_count_[j] = f;
      num_at_max_[j] = 1;
      argmax_[j] = t;
    } else if (f == max_count_[j]) {
      ++num_at_max_[j];
    }
  }
  ++count_;
}

void AesPfa::add_ciphertext(const Block& c) noexcept { absorb(c.data()); }

void AesPfa::add_ciphertext_batch(
    std::span<const std::uint8_t> ciphertexts) noexcept {
  EXPLFRAME_CHECK(ciphertexts.size() % 16 == 0);
  for (std::size_t off = 0; off < ciphertexts.size(); off += 16)
    absorb(ciphertexts.data() + off);
}

void AesPfa::reset() noexcept {
  for (auto& f : freq_) f.fill(0);
  count_ = 0;
  zero_count_.fill(256);
  zero_sum_.fill(255 * 256 / 2);
  max_count_.fill(0);
  num_at_max_.fill(0);
  argmax_.fill(0);
}

std::array<std::vector<std::uint8_t>, 16> AesPfa::candidates(
    PfaStrategy strategy, std::uint8_t v, std::uint8_t v_new) const {
  std::array<std::vector<std::uint8_t>, 16> out;
  for (std::size_t j = 0; j < 16; ++j) {
    const auto& f = freq_[j];
    if (strategy == PfaStrategy::kMissingValue) {
      for (std::size_t t = 0; t < 256; ++t)
        if (f[t] == 0)
          out[j].push_back(static_cast<std::uint8_t>(t ^ v));
    } else {
      // All values tied for the maximum count are candidates; with enough
      // data only t = v' ^ K10_j (hit twice per SubBytes image) survives.
      const std::uint32_t best = max_count_[j];
      if (best == 0) continue;
      for (std::size_t t = 0; t < 256; ++t)
        if (f[t] == best)
          out[j].push_back(static_cast<std::uint8_t>(t ^ v_new));
    }
  }
  return out;
}

double AesPfa::remaining_keyspace_log2(PfaStrategy strategy, std::uint8_t /*v*/,
                                       std::uint8_t /*v_new*/) const {
  // Candidate-set sizes come straight off the incremental tallies; the XOR
  // with v / v_new permutes candidates without changing how many there are.
  double bits = 0.0;
  for (std::size_t j = 0; j < 16; ++j) {
    const std::uint32_t n = strategy == PfaStrategy::kMissingValue
                                ? zero_count_[j]
                                : num_at_max_[j];
    if (n == 0) return 128.0;  // No information yet for this byte.
    bits += std::log2(static_cast<double>(n));
  }
  return bits;
}

std::optional<AesPfa::RoundKey> AesPfa::recover_round10(
    PfaStrategy strategy, std::uint8_t v, std::uint8_t v_new) const {
  RoundKey key{};
  for (std::size_t j = 0; j < 16; ++j) {
    if (strategy == PfaStrategy::kMissingValue) {
      // Unique missing value: zero_sum_ then IS that value.
      if (zero_count_[j] != 1) return std::nullopt;
      key[j] = static_cast<std::uint8_t>(zero_sum_[j] ^ v);
    } else {
      if (max_count_[j] == 0 || num_at_max_[j] != 1) return std::nullopt;
      key[j] = static_cast<std::uint8_t>(argmax_[j] ^ v_new);
    }
  }
  return key;
}

std::optional<crypto::Aes128::Key> AesPfa::recover_master_key(
    PfaStrategy strategy, std::uint8_t v, std::uint8_t v_new) const {
  const auto k10 = recover_round10(strategy, v, v_new);
  if (!k10) return std::nullopt;
  return crypto::Aes128::master_key_from_round10(*k10);
}

}  // namespace explframe::fault
