#include "crypto/present80.hpp"

#include <algorithm>
#include <bit>
#include <utility>

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

// ---- Bitsliced residual key search ----------------------------------------
// One Lanes word holds one bit position of 256 candidates: lane l (bit l % 64
// of element l / 64) is candidate low = 256 * block + l, so lane order is
// candidate order. A portable GCC/Clang vector (SSE2 on baseline x86-64).
// Lanes values travel by reference only: a by-value 32-byte vector changes
// the ABI without AVX, and GCC warns (-Wpsabi) about it.
typedef std::uint64_t Lanes __attribute__((vector_size(32)));

constexpr Lanes kZero = {0, 0, 0, 0};
constexpr Lanes kOnes = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
/// kSplat[b]: bit b in every lane.
constexpr Lanes kSplat[2] = {kZero, kOnes};
/// Bit j of the lane index, for the register's low 8 bits.
constexpr Lanes kLaneIndexBits[8] = {
    {0xAAAAAAAAAAAAAAAAULL, 0xAAAAAAAAAAAAAAAAULL, 0xAAAAAAAAAAAAAAAAULL,
     0xAAAAAAAAAAAAAAAAULL},
    {0xCCCCCCCCCCCCCCCCULL, 0xCCCCCCCCCCCCCCCCULL, 0xCCCCCCCCCCCCCCCCULL,
     0xCCCCCCCCCCCCCCCCULL},
    {0xF0F0F0F0F0F0F0F0ULL, 0xF0F0F0F0F0F0F0F0ULL, 0xF0F0F0F0F0F0F0F0ULL,
     0xF0F0F0F0F0F0F0F0ULL},
    {0xFF00FF00FF00FF00ULL, 0xFF00FF00FF00FF00ULL, 0xFF00FF00FF00FF00ULL,
     0xFF00FF00FF00FF00ULL},
    {0xFFFF0000FFFF0000ULL, 0xFFFF0000FFFF0000ULL, 0xFFFF0000FFFF0000ULL,
     0xFFFF0000FFFF0000ULL},
    {0xFFFFFFFF00000000ULL, 0xFFFFFFFF00000000ULL, 0xFFFFFFFF00000000ULL,
     0xFFFFFFFF00000000ULL},
    {0, ~0ULL, 0, ~0ULL},
    {0, 0, ~0ULL, ~0ULL},
};

// The S-box and its inverse as fixed circuits over bit slices (x0/y0 = the
// nibble's least significant bit), factored from their algebraic normal
// forms. W is a Lanes word, or a scalar for the compile-time proof below.
template <typename W>
constexpr void sbox_circuit(const W& x0, const W& x1, const W& x2,
                            const W& x3, W& y0, W& y1, W& y2,
                            W& y3) noexcept {
  const W x13 = x1 ^ x3;
  const W c = x3 & (x1 ^ x2);       // x1x3 ^ x2x3
  const W d = x0 & ((x1 & x2) ^ c);  // x0 * maj(x1, x2, x3)
  const W h = x13 ^ c;
  y0 = x0 ^ x3 ^ (x2 & ~x1);
  y1 = h ^ d;
  y2 = ~(x2 ^ x3 ^ (x0 & h) ^ (x1 & x3));
  y3 = ~(x0 ^ x13 ^ (x1 & x2) ^ d);
}

template <typename W>
constexpr void inv_sbox_circuit(const W& x0, const W& x1, const W& x2,
                                const W& x3, W& y0, W& y1, W& y2,
                                W& y3) noexcept {
  const W x01 = x0 & x1;
  const W x02 = x0 & x2;
  const W x12 = x1 & x2;
  const W x13 = x1 & x3;
  const W x012 = x01 & x2;
  const W x013 = x01 & x3;
  const W x023 = x02 & x3;
  y0 = ~(x0 ^ x2 ^ x13);
  y1 = x0 ^ x1 ^ x02 ^ x012 ^ x3 ^ x13 ^ x013 ^ (x2 & x3) ^ x023;
  y2 = ~(x01 ^ x02 ^ x12 ^ x012 ^ x3 ^ (x0 & x3) ^ x13 ^ x013 ^ x023);
  y3 = x0 ^ x1 ^ x01 ^ x2 ^ x012 ^ x3 ^ x023;
}

/// Both circuits, run on the 16 inputs at once as scalar bit slices, give
/// back their tables bit for bit.
template <bool kInverse>
constexpr bool circuit_is_exact() {
  const std::uint64_t x0 = 0xAAAA, x1 = 0xCCCC, x2 = 0xF0F0, x3 = 0xFF00;
  std::uint64_t y[4] = {};
  if constexpr (kInverse)
    inv_sbox_circuit(x0, x1, x2, x3, y[0], y[1], y[2], y[3]);
  else
    sbox_circuit(x0, x1, x2, x3, y[0], y[1], y[2], y[3]);
  for (std::size_t x = 0; x < 16; ++x)
    for (std::size_t k = 0; k < 4; ++k)
      if (((y[k] >> x) & 1) != (((kInverse ? kInvSbox : kSbox)[x] >> k) & 1U))
        return false;
  return true;
}
static_assert(circuit_is_exact<false>() && circuit_is_exact<true>());

/// One masked table entry that differs from the real S-box: in lanes whose
/// input nibble equals `entry`, the circuit's output is XORed with `diff`.
struct Correction {
  std::array<Lanes, 4> complement{};  ///< All-ones where `entry` has a 0.
  std::uint8_t diff = 0;              ///< S[entry] ^ (table[entry] & 0xF).
};

/// The fault corrections of `table`, one per differing masked entry.
struct Corrections {
  std::array<Correction, 16> entry{};
  std::size_t count = 0;

  explicit Corrections(std::span<const std::uint8_t, 16> table) noexcept {
    for (std::size_t e = 0; e < 16; ++e) {
      const auto diff = static_cast<std::uint8_t>(kSbox[e] ^ (table[e] & 0xF));
      if (diff == 0) continue;
      Correction& c = entry[count++];
      for (std::size_t k = 0; k < 4; ++k)
        c.complement[k] = kSplat[(~e >> k) & 1];
      c.diff = diff;
    }
  }
};

/// sBoxLayer through the faulty table, then pLayer as a renaming: output
/// bit k of nibble j is state bit 4j + k, which pLayer sends to 16k + j.
void sp_layer(const Lanes* in, Lanes* out, const Corrections& fix) noexcept {
  for (std::size_t j = 0; j < 16; ++j) {
    const Lanes* x = in + 4 * j;
    Lanes y[4] = {};
    sbox_circuit(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3]);
    for (std::size_t f = 0; f < fix.count; ++f) {
      const Correction& c = fix.entry[f];
      const Lanes eq = (x[0] ^ c.complement[0]) & (x[1] ^ c.complement[1]) &
                       (x[2] ^ c.complement[2]) & (x[3] ^ c.complement[3]);
      for (std::size_t k = 0; k < 4; ++k)
        if ((c.diff >> k) & 1) y[k] ^= eq;
    }
    for (std::size_t k = 0; k < 4; ++k) out[16 * k + j] = y[k];
  }
}

/// The 80-bit key register of 256 candidates: register bit i lives in
/// word[(i + base) % 80], so a rotation only moves `base`.
class KeyRegister {
 public:
  /// Register K32 || low for the 256 candidates low = 256 * block + lane.
  void load(std::uint64_t k32, std::uint32_t block) noexcept {
    base_ = 0;
    for (std::size_t i = 0; i < 8; ++i) word_[i] = kLaneIndexBits[i];
    for (std::size_t i = 8; i < 16; ++i)
      word_[i] = kSplat[(block >> (i - 8)) & 1];
    for (std::size_t i = 16; i < 80; ++i)
      word_[i] = kSplat[(k32 >> (i - 16)) & 1];
  }

  /// expand_key's step after round `round`: rotate left by 61, S-box on
  /// bits 79..76, XOR `round` into bits 19..15.
  void step(std::uint32_t round) noexcept {
    rotate_left(61);
    substitute_top<false>();
    xor_counter(round);
  }

  /// step(round) undone, as invert_key_schedule does it.
  void unstep(std::uint32_t round) noexcept {
    xor_counter(round);
    substitute_top<true>();
    rotate_left(19);
  }

  /// XOR the round key (register bits 79..16) into the 64 state words.
  void add_round_key(Lanes* state) const noexcept {
    const std::size_t start = (16 + base_) % 80;
    const std::size_t head = std::min<std::size_t>(64, 80 - start);
    for (std::size_t i = 0; i < head; ++i) state[i] ^= word_[start + i];
    for (std::size_t i = head; i < 64; ++i) state[i] ^= word_[i - head];
  }

 private:
  Lanes& bit(std::size_t i) noexcept { return word_[(i + base_) % 80]; }
  void rotate_left(std::size_t n) noexcept { base_ = (base_ + 80 - n) % 80; }
  template <bool kInverse>
  void substitute_top() noexcept {
    Lanes y[4] = {};
    if constexpr (kInverse)
      inv_sbox_circuit(bit(76), bit(77), bit(78), bit(79), y[0], y[1], y[2],
                       y[3]);
    else
      sbox_circuit(bit(76), bit(77), bit(78), bit(79), y[0], y[1], y[2], y[3]);
    for (std::size_t k = 0; k < 4; ++k) bit(76 + k) = y[k];
  }
  void xor_counter(std::uint32_t round) noexcept {
    for (std::size_t k = 0; k < 5; ++k)
      if ((round >> k) & 1) bit(15 + k) ^= kOnes;
  }

  std::array<Lanes, 80> word_{};
  std::size_t base_ = 0;
};

}  // namespace

const std::array<std::uint8_t, 16>& Present80::sbox() noexcept { return kSbox; }

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

std::optional<std::uint16_t> Present80::find_register_low(
    std::uint64_t k32, Block plaintext, Block ciphertext,
    std::span<const std::uint8_t, 16> table) noexcept {
  const Corrections fix(table);
  // After 31 rounds the state must equal ciphertext ^ K32 (the whitening
  // key is the round-32 register's top, the same in every lane).
  const std::uint64_t target = ciphertext ^ k32;
  KeyRegister reg;
  std::array<Lanes, 64> a{};
  std::array<Lanes, 64> b{};
  for (std::uint32_t block = 0; block < 256; ++block) {
    // Back to register 1 (the master keys), then forward again beside the
    // rounds: round keys arrive in encryption order and none is stored.
    reg.load(k32, block);
    for (std::uint32_t round = 31; round >= 1; --round) reg.unstep(round);
    Lanes* state = a.data();
    Lanes* next = b.data();
    for (std::size_t i = 0; i < 64; ++i)
      state[i] = kSplat[(plaintext >> i) & 1];
    for (std::uint32_t round = 1; round <= 31; ++round) {
      reg.add_round_key(state);
      sp_layer(state, next, fix);
      std::swap(state, next);
      if (round < 31) reg.step(round);
    }
    Lanes mismatch = kZero;
    for (std::size_t i = 0; i < 64; ++i)
      mismatch |= state[i] ^ kSplat[(target >> i) & 1];
    for (std::uint32_t e = 0; e < 4; ++e) {
      const std::uint64_t hit = ~mismatch[e];
      if (hit != 0)
        return static_cast<std::uint16_t>(256 * block + 64 * e +
                                          std::countr_zero(hit));
    }
  }
  return std::nullopt;
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

}  // namespace explframe::crypto
