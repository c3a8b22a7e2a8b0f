#include "fault/dfa_aes.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace explframe::fault {

using crypto::Aes128;

namespace {
constexpr std::uint8_t kMc[4][4] = {
    {2, 3, 1, 1}, {1, 2, 3, 1}, {1, 1, 2, 3}, {3, 1, 1, 2}};
}

std::array<std::size_t, 4> AesDfa::positions_for_column(std::size_t col) {
  // MC-output column `col` of round 9; the final ShiftRows moves byte
  // (row rr, col) to ciphertext position rr + 4*((col - rr) mod 4).
  std::array<std::size_t, 4> pos{};
  for (std::size_t rr = 0; rr < 4; ++rr)
    pos[rr] = rr + 4 * ((col + 4 - rr) % 4);
  return pos;
}

bool AesDfa::add_pair(const Block& correct, const Block& faulty) {
  // Identify the affected column from the differing byte positions.
  std::vector<std::size_t> diff;
  for (std::size_t i = 0; i < 16; ++i)
    if (correct[i] != faulty[i]) diff.push_back(i);
  if (diff.size() != 4) return false;

  std::size_t col = 4;
  for (std::size_t c = 0; c < 4; ++c) {
    auto pos = positions_for_column(c);
    std::sort(pos.begin(), pos.end());
    if (std::equal(pos.begin(), pos.end(), diff.begin())) {
      col = c;
      break;
    }
  }
  if (col == 4) return false;

  const auto pos = positions_for_column(col);
  const auto& inv = Aes128::inv_sbox();

  // Enumerate hypotheses: faulted row r (before MixColumns) and the
  // post-SubBytes byte difference d.
  std::set<std::array<std::uint8_t, 4>> tuples;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::uint32_t d = 1; d < 256; ++d) {
      std::array<std::vector<std::uint8_t>, 4> per_byte;
      bool viable = true;
      for (std::size_t rr = 0; rr < 4 && viable; ++rr) {
        const std::uint8_t delta =
            Aes128::gmul(static_cast<std::uint8_t>(d), kMc[rr][r]);
        const std::uint8_t c0 = correct[pos[rr]];
        const std::uint8_t c1 = faulty[pos[rr]];
        for (std::uint32_t k = 0; k < 256; ++k) {
          const std::uint8_t kk = static_cast<std::uint8_t>(k);
          if ((inv[c0 ^ kk] ^ inv[c1 ^ kk]) == delta)
            per_byte[rr].push_back(kk);
        }
        if (per_byte[rr].empty()) viable = false;
      }
      if (!viable) continue;
      for (const auto k0 : per_byte[0])
        for (const auto k1 : per_byte[1])
          for (const auto k2 : per_byte[2])
            for (const auto k3 : per_byte[3])
              tuples.insert({k0, k1, k2, k3});
    }
  }

  if (seen_[col] == 0) {
    cand_[col] = std::move(tuples);
  } else {
    std::set<std::array<std::uint8_t, 4>> kept;
    for (const auto& t : cand_[col])
      if (tuples.count(t) != 0) kept.insert(t);
    cand_[col] = std::move(kept);
  }
  ++seen_[col];
  return true;
}

std::size_t AesDfa::pairs_for_column(std::size_t col) const {
  EXPLFRAME_CHECK(col < 4);
  return seen_[col];
}

std::optional<AesDfa::RoundKey> AesDfa::recover_round10() const {
  RoundKey key{};
  for (std::size_t c = 0; c < 4; ++c) {
    if (cand_[c].size() != 1) return std::nullopt;
    const auto& tuple = *cand_[c].begin();
    const auto pos = positions_for_column(c);
    for (std::size_t rr = 0; rr < 4; ++rr) key[pos[rr]] = tuple[rr];
  }
  return key;
}

}  // namespace explframe::fault
