#include "crypto/aes128.hpp"

namespace explframe::crypto {

namespace {

constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (std::size_t i = 0; i < 256; ++i)
    inv[kSbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}

constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04,
                                                0x08, 0x10, 0x20, 0x40,
                                                0x80, 0x1b, 0x36};

using State = std::array<std::uint8_t, 16>;  // state[r + 4c], column-major.

inline void add_round_key(State& s, const Aes128::RoundKey& k) noexcept {
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= k[i];
}

inline void sub_bytes(State& s,
                      std::span<const std::uint8_t, 256> table) noexcept {
  for (auto& b : s) b = table[b];
}

inline void shift_rows(State& s) noexcept {
  State t = s;
  for (std::size_t r = 1; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) s[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
}

inline void mix_columns(State& s) noexcept {
  for (std::size_t c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    const std::uint8_t x = a0 ^ a1 ^ a2 ^ a3;
    col[0] = static_cast<std::uint8_t>(a0 ^ x ^ Aes128::xtime(a0 ^ a1));
    col[1] = static_cast<std::uint8_t>(a1 ^ x ^ Aes128::xtime(a1 ^ a2));
    col[2] = static_cast<std::uint8_t>(a2 ^ x ^ Aes128::xtime(a2 ^ a3));
    col[3] = static_cast<std::uint8_t>(a3 ^ x ^ Aes128::xtime(a3 ^ a0));
  }
}

}  // namespace

const std::array<std::uint8_t, 256>& Aes128::sbox() noexcept { return kSbox; }
const std::array<std::uint8_t, 256>& Aes128::inv_sbox() noexcept {
  return kInvSbox;
}

std::uint8_t Aes128::gmul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  while (b != 0) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

Aes128::RoundKeys Aes128::expand_key(const Key& key) noexcept {
  // Words w[0..43]; w[i] = 4 bytes.
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) w[i][j] = key[4 * i + j];
  for (std::size_t i = 4; i < 44; ++i) {
    std::array<std::uint8_t, 4> temp = w[i - 1];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) w[i][j] = w[i - 4][j] ^ temp[j];
  }
  RoundKeys rk{};
  for (std::size_t r = 0; r < 11; ++r)
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) rk[r][4 * i + j] = w[4 * r + i][j];
  return rk;
}

Aes128::Key Aes128::master_key_from_round10(const RoundKey& k10) noexcept {
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) w[40 + i][j] = k10[4 * i + j];
  for (std::size_t i = 40; i-- > 0;) {
    // w[i] = w[i+4] ^ f(w[i+3]) where f depends on (i+4) % 4.
    std::array<std::uint8_t, 4> temp = w[i + 3];
    if ((i + 4) % 4 == 0) {
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[(i + 4) / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) w[i][j] = w[i + 4][j] ^ temp[j];
  }
  Key key{};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) key[4 * i + j] = w[i][j];
  return key;
}

Aes128::Block Aes128::encrypt_with_sbox(
    const Block& plaintext, const RoundKeys& rk,
    std::span<const std::uint8_t, 256> table) noexcept {
  State s = plaintext;
  add_round_key(s, rk[0]);
  for (std::size_t round = 1; round <= 9; ++round) {
    sub_bytes(s, table);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, rk[round]);
  }
  sub_bytes(s, table);
  shift_rows(s);
  add_round_key(s, rk[10]);
  return s;
}

Aes128::Block Aes128::encrypt(const Block& plaintext,
                              const RoundKeys& rk) noexcept {
  return encrypt_with_sbox(plaintext, rk, kSbox);
}

Aes128::Block Aes128::encrypt_with_transient_fault(
    const Block& plaintext, const RoundKeys& rk, std::size_t round,
    std::size_t byte_index, std::uint8_t mask) noexcept {
  State s = plaintext;
  add_round_key(s, rk[0]);
  for (std::size_t r = 1; r <= 9; ++r) {
    if (r == round) s[byte_index % 16] ^= mask;
    sub_bytes(s, kSbox);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, rk[r]);
  }
  if (round == 10) s[byte_index % 16] ^= mask;
  sub_bytes(s, kSbox);
  shift_rows(s);
  add_round_key(s, rk[10]);
  return s;
}

}  // namespace explframe::crypto
