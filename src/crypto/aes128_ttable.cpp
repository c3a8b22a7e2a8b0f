#include "crypto/aes128_ttable.hpp"

namespace explframe::crypto {

namespace {

constexpr std::uint32_t pack(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                             std::uint8_t d) noexcept {
  return (std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
         (std::uint32_t{c} << 8) | d;
}

inline std::uint32_t word_of(const std::uint8_t* bytes) noexcept {
  return pack(bytes[0], bytes[1], bytes[2], bytes[3]);
}

}  // namespace

Aes128T::Tables Aes128T::derive_tables(
    std::span<const std::uint8_t, 256> sbox) {
  Tables t;
  for (std::size_t i = 0; i < 256; ++i) {
    const std::uint8_t s = sbox[i];
    const std::uint8_t s2 = Aes128::xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    t.te0[i] = pack(s2, s, s, s3);
    t.te1[i] = pack(s3, s2, s, s);
    t.te2[i] = pack(s, s3, s2, s);
    t.te3[i] = pack(s, s, s3, s2);
  }
  return t;
}

Aes128T::Block Aes128T::encrypt(const Block& plaintext, const RoundKeys& rk,
                                const Tables& tables,
                                std::span<const std::uint8_t, 256> sbox) {
  // State as four big-endian column words.
  std::uint32_t s[4];
  for (std::size_t j = 0; j < 4; ++j)
    s[j] = word_of(&plaintext[4 * j]) ^ word_of(&rk[0][4 * j]);

  for (std::size_t round = 1; round <= 9; ++round) {
    std::uint32_t t[4];
    for (std::size_t j = 0; j < 4; ++j) {
      t[j] = tables.te0[s[j] >> 24] ^
             tables.te1[(s[(j + 1) % 4] >> 16) & 0xFF] ^
             tables.te2[(s[(j + 2) % 4] >> 8) & 0xFF] ^
             tables.te3[s[(j + 3) % 4] & 0xFF] ^ word_of(&rk[round][4 * j]);
    }
    for (std::size_t j = 0; j < 4; ++j) s[j] = t[j];
  }

  Block out;
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t r = 0; r < 4; ++r) {
      const std::uint32_t word = s[(j + r) % 4];
      const auto byte =
          static_cast<std::uint8_t>((word >> (24 - 8 * r)) & 0xFF);
      out[4 * j + r] = static_cast<std::uint8_t>(sbox[byte] ^ rk[10][4 * j + r]);
    }
  }
  return out;
}

}  // namespace explframe::crypto
