// AES-128 (FIPS-197), S-box table driven.
//
// Two encryption paths are provided:
//  * encrypt()            — canonical S-box, for tests/baselines;
//  * encrypt_with_sbox()  — SubBytes reads from a caller-supplied 256-byte
//    table. The victim process stores that table in its own (simulated)
//    memory pages, so a Rowhammer flip in the page yields genuinely faulty
//    ciphertexts; this is the Persistent Fault Analysis target of the paper
//    (ref [12], Zhang et al. TCHES 2018).
//
// The key schedule is computed once at set-up time with the clean S-box
// (matching a victim that expands its key before the fault is injected)
// and is invertible: round-10 key -> master key.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace explframe::crypto {

/// Reference AES-128: textbook byte-oriented rounds over the canonical
/// S-box. The ground-truth implementation every faulted/table variant is
/// differential-tested against.
class Aes128 {
 public:
  using Block = std::array<std::uint8_t, 16>;
  using Key = std::array<std::uint8_t, 16>;
  using RoundKey = std::array<std::uint8_t, 16>;
  /// 11 round keys: K0 (whitening) .. K10 (final).
  using RoundKeys = std::array<RoundKey, 11>;

  static const std::array<std::uint8_t, 256>& sbox() noexcept;
  static const std::array<std::uint8_t, 256>& inv_sbox() noexcept;

  static RoundKeys expand_key(const Key& key) noexcept;

  /// Invert the key schedule: recover the master key from the last round
  /// key (the step PFA finishes with).
  static Key master_key_from_round10(const RoundKey& k10) noexcept;

  static Block encrypt(const Block& plaintext, const RoundKeys& rk) noexcept;

  /// Encrypt using `table` for every SubBytes (all 10 rounds), as a
  /// table-based software AES does. `table` may contain faults.
  static Block encrypt_with_sbox(
      const Block& plaintext, const RoundKeys& rk,
      std::span<const std::uint8_t, 256> table) noexcept;

  /// Encrypt with a *transient* fault: `mask` is XORed into state byte
  /// `byte_index` (state layout: row + 4*col) at the entry of `round`
  /// (1-based, before that round's SubBytes). This is the classic DFA
  /// fault model (Piret-Quisquater), implemented as the comparison point
  /// for persistent faults in the `fault-techniques` experiment.
  static Block encrypt_with_transient_fault(const Block& plaintext,
                                            const RoundKeys& rk,
                                            std::size_t round,
                                            std::size_t byte_index,
                                            std::uint8_t mask) noexcept;

  /// GF(2^8) helpers (exposed for the DFA implementation).
  static std::uint8_t xtime(std::uint8_t x) noexcept {
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
  }
  static std::uint8_t gmul(std::uint8_t a, std::uint8_t b) noexcept;
};

}  // namespace explframe::crypto
