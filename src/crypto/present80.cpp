#include "crypto/present80.hpp"

namespace explframe::crypto {

namespace {

constexpr std::array<std::uint8_t, 16> kSbox = {0xC, 0x5, 0x6, 0xB, 0x9, 0x0,
                                                0xA, 0xD, 0x3, 0xE, 0xF, 0x8,
                                                0x4, 0x7, 0x1, 0x2};

constexpr std::array<std::uint8_t, 16> make_inv() {
  std::array<std::uint8_t, 16> inv{};
  for (std::size_t i = 0; i < 16; ++i) inv[kSbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}
constexpr std::array<std::uint8_t, 16> kInvSbox = make_inv();

inline std::uint64_t sbox_layer(std::uint64_t s,
                                std::span<const std::uint8_t, 16> table) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t nib = (s >> (4 * i)) & 0xF;
    // Table entries are stored one nibble per byte; the implementation
    // masks on use, so only low-nibble faults in a stored byte are live.
    out |= static_cast<std::uint64_t>(table[nib] & 0xF) << (4 * i);
  }
  return out;
}

inline std::uint64_t inv_sbox_layer(std::uint64_t s) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t nib = (s >> (4 * i)) & 0xF;
    out |= static_cast<std::uint64_t>(kInvSbox[nib]) << (4 * i);
  }
  return out;
}

}  // namespace

const std::array<std::uint8_t, 16>& Present80::sbox() noexcept { return kSbox; }
const std::array<std::uint8_t, 16>& Present80::inv_sbox() noexcept {
  return kInvSbox;
}

std::uint64_t Present80::p_layer(std::uint64_t s) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 64; ++i) {
    const int to = (i == 63) ? 63 : (16 * i) % 63;
    out |= ((s >> i) & 1ULL) << to;
  }
  return out;
}

std::uint64_t Present80::p_layer_inv(std::uint64_t s) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 64; ++i) {
    const int to = (i == 63) ? 63 : (16 * i) % 63;
    out |= ((s >> to) & 1ULL) << i;
  }
  return out;
}

Present80::RoundKeys Present80::expand_key(const Key& key) noexcept {
  // 80-bit register, k79 (msb) .. k0.
  __uint128_t reg = 0;
  for (const std::uint8_t b : key) reg = (reg << 8) | b;
  const __uint128_t mask80 = (static_cast<__uint128_t>(1) << 80) - 1;

  RoundKeys rk{};
  for (std::uint32_t round = 1; round <= 32; ++round) {
    rk[round - 1] = static_cast<std::uint64_t>(reg >> 16);  // leftmost 64 bits
    if (round == 32) break;
    // 1. rotate left by 61
    reg = ((reg << 61) | (reg >> 19)) & mask80;
    // 2. S-box on the top nibble (bits 79..76)
    const auto top = static_cast<std::uint8_t>((reg >> 76) & 0xF);
    reg = (reg & ~(static_cast<__uint128_t>(0xF) << 76)) |
          (static_cast<__uint128_t>(kSbox[top]) << 76);
    // 3. XOR round counter into bits 19..15
    reg ^= static_cast<__uint128_t>(round) << 15;
  }
  return rk;
}

Present80::Key Present80::invert_key_schedule(std::uint64_t k32,
                                             std::uint16_t low,
                                             RoundKeys& rk) noexcept {
  const __uint128_t mask80 = (static_cast<__uint128_t>(1) << 80) - 1;
  __uint128_t reg = (static_cast<__uint128_t>(k32) << 16) | low;
  rk[31] = k32;
  // Undo expand_key's three steps in reverse order, round 31 down to 1.
  for (std::uint32_t round = 31; round >= 1; --round) {
    reg ^= static_cast<__uint128_t>(round) << 15;
    const auto top = static_cast<std::uint8_t>((reg >> 76) & 0xF);
    reg = (reg & ~(static_cast<__uint128_t>(0xF) << 76)) |
          (static_cast<__uint128_t>(kInvSbox[top]) << 76);
    reg = ((reg >> 61) | (reg << 19)) & mask80;
    rk[round - 1] = static_cast<std::uint64_t>(reg >> 16);
  }
  Key key{};
  for (std::size_t i = 0; i < 10; ++i)
    key[i] = static_cast<std::uint8_t>(reg >> (8 * (9 - i)));
  return key;
}

std::uint64_t Present80::encrypt_with_sbox(
    Block plaintext, const RoundKeys& rk,
    std::span<const std::uint8_t, 16> table) noexcept {
  std::uint64_t state = plaintext;
  for (std::size_t round = 0; round < 31; ++round) {
    state ^= rk[round];
    state = sbox_layer(state, table);
    state = p_layer(state);
  }
  return state ^ rk[31];
}

std::uint64_t Present80::encrypt(Block plaintext,
                                 const RoundKeys& rk) noexcept {
  return encrypt_with_sbox(plaintext, rk, kSbox);
}

Present80::SpTables Present80::derive_sp_tables(
    std::span<const std::uint8_t, 16> table) noexcept {
  // pLayer is linear over disjoint bit sets, so a byte's image is the XOR
  // (here OR: disjoint bits) of its two nibbles' images. Substitute exactly
  // as sbox_layer does (stored entries are masked on use) and permute each
  // of the 16 x 16 (position, value) nibbles once.
  std::array<std::array<std::uint64_t, 16>, 16> nibble{};
  for (std::size_t pos = 0; pos < 16; ++pos)
    for (std::size_t x = 0; x < 16; ++x)
      nibble[pos][x] =
          p_layer(static_cast<std::uint64_t>(table[x] & 0xF) << (4 * pos));
  SpTables sp{};
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t b = 0; b < 256; ++b)
      sp[i][b] = nibble[2 * i][b & 0xF] | nibble[2 * i + 1][b >> 4];
  return sp;
}

std::uint64_t Present80::encrypt_with_sp(Block plaintext, const RoundKeys& rk,
                                         const SpTables& sp) noexcept {
  std::uint64_t state = plaintext;
  for (std::size_t round = 0; round < 31; ++round) {
    state ^= rk[round];
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < 8; ++i)
      next ^= sp[i][(state >> (8 * i)) & 0xFF];
    state = next;
  }
  return state ^ rk[31];
}

std::uint64_t Present80::decrypt(Block ciphertext,
                                 const RoundKeys& rk) noexcept {
  std::uint64_t state = ciphertext ^ rk[31];
  for (std::size_t round = 31; round-- > 0;) {
    state = p_layer_inv(state);
    state = inv_sbox_layer(state);
    state ^= rk[round];
  }
  return state;
}

}  // namespace explframe::crypto
