// Persistent Fault Analysis data complexity (paper ref [12], Zhang et al.
// TCHES 2018) through the fault::Analysis interface: the remaining AES-128
// key space against faulty ciphertexts, and the ciphertexts needed for a
// unique key. The shape to reproduce is the coupon-collector knee around
// 2000 ciphertexts.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/table_cipher.hpp"
#include "exp/bodies.hpp"
#include "fault/analysis.hpp"
#include "fault/injection.hpp"
#include "fault/pfa_aes.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace explframe::exp {

using namespace explframe::crypto;
using namespace explframe::fault;

namespace {

/// A random AES-128 key encrypting random plaintexts through an S-box with
/// one random single-bit fault.
struct FaultedOracle {
  /// Blocks drawn and encrypted per refill.
  static constexpr std::size_t kBatch = 64;

  Aes128::Key key;
  FaultModel fault_model;
  Rng rng;
  std::unique_ptr<EncryptContext> context;
  std::array<std::uint8_t, 16 * kBatch> plaintexts;
  std::array<std::uint8_t, 16 * kBatch> ciphertexts;
  std::size_t served = kBatch;  ///< Blocks of `ciphertexts` handed out.

  explicit FaultedOracle(std::uint64_t seed) : rng(seed) {
    rng.fill_bytes(key);
    auto table = Aes128::sbox();
    SboxByteFault fault;
    fault.index = static_cast<std::uint16_t>(rng.uniform(256));
    fault.mask = static_cast<std::uint8_t>(1u << rng.uniform(8));
    const auto [before, after] = apply_fault(table, fault);
    fault_model = {fault.index, fault.mask, before, after};
    const TableCipher& aes = cipher_for(CipherKind::kAes128);
    std::vector<std::uint8_t> round_keys(aes.round_key_size());
    aes.expand_key(key, round_keys);
    context = aes.make_context(round_keys, table);
  }

  /// The stream's next ciphertext. Plaintexts are drawn and encrypted
  /// kBatch at a time; Rng::fill_bytes gives a batch the same bytes as
  /// per-block draws, so the stream does not depend on kBatch.
  Aes128::Block next_ciphertext() {
    if (served == kBatch) {
      rng.fill_bytes(plaintexts);
      cipher_for(CipherKind::kAes128)
          .encrypt_batch(*context, plaintexts, ciphertexts);
      served = 0;
    }
    Aes128::Block ct;
    std::copy_n(ciphertexts.begin() + 16 * served++, 16, ct.begin());
    return ct;
  }
};

Table keyspace_curve() {
  constexpr int kRepeats = 20;
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  Table t({"ciphertexts", "mean log2(keyspace), missing-value",
           "mean log2(argmax ties), max-likelihood", "P(unique), missing"});
  for (const std::size_t n : {125, 250, 500, 1000, 1500, 2000, 3000, 4000}) {
    RunningStats missing_bits, ml_bits;
    std::size_t unique = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      FaultedOracle oracle(1000 + rep);
      const auto missing = make_analysis(AnalysisKind::kPfaMissingValue, aes,
                                         oracle.fault_model);
      const auto ml = make_analysis(AnalysisKind::kPfaMaxLikelihood, aes,
                                    oracle.fault_model);
      for (std::size_t i = 0; i < n; ++i) {
        const Aes128::Block ct = oracle.next_ciphertext();
        missing->add_ciphertext(ct);
        ml->add_ciphertext(ct);
      }
      missing_bits.add(missing->remaining_keyspace_log2());
      ml_bits.add(ml->remaining_keyspace_log2());
      if (missing->recover_key()) ++unique;
    }
    t.row(n, missing_bits.mean(), ml_bits.mean(),
          Table::percent(static_cast<double>(unique) / kRepeats));
  }
  return t;
}

Table ciphertexts_to_unique() {
  constexpr int kRepeats = 50;
  constexpr std::size_t kStep = 32;
  constexpr std::size_t kCap = 60'000;
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  Samples missing_needed;
  for (int rep = 0; rep < kRepeats; ++rep) {
    FaultedOracle oracle(5000 + rep);
    const auto missing = make_analysis(AnalysisKind::kPfaMissingValue, aes,
                                       oracle.fault_model);
    std::size_t used = 0;
    while (used < kCap) {
      for (std::size_t i = 0; i < kStep; ++i)
        missing->add_ciphertext(oracle.next_ciphertext());
      used += kStep;
      if (missing->recover_key()) {
        missing_needed.add(static_cast<double>(used));
        break;
      }
    }
  }
  Table t({"strategy", "mean", "median", "p90", "min", "max"});
  t.row("missing-value", missing_needed.mean(), missing_needed.median(),
        missing_needed.percentile(90), missing_needed.min(),
        missing_needed.max());
  return t;
}

Table max_likelihood_top_guess() {
  constexpr int kRepeats = 20;
  Table t({"ciphertexts", "P(ML top-guess key correct)"});
  for (const std::size_t n : {1000, 2000, 4000, 8000, 16000, 32000}) {
    std::size_t correct = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      FaultedOracle oracle(9000 + rep);
      // The top-guess diagnostic needs the raw frequency tables, which are
      // an engine detail below the Analysis interface.
      AesPfa pfa;
      for (std::size_t i = 0; i < n; ++i)
        pfa.add_ciphertext(oracle.next_ciphertext());
      // Top guess: argmax per byte, ties broken arbitrarily (first).
      Aes128::RoundKey guess{};
      for (std::size_t j = 0; j < 16; ++j) {
        const auto& f = pfa.frequencies(j);
        std::uint32_t best = 0;
        std::size_t best_t = 0;
        for (std::size_t tv = 0; tv < 256; ++tv)
          if (f[tv] > best) {
            best = f[tv];
            best_t = tv;
          }
        guess[j] =
            static_cast<std::uint8_t>(best_t ^ oracle.fault_model.v_new);
      }
      if (Aes128::master_key_from_round10(guess) == oracle.key) ++correct;
    }
    t.row(n, Table::percent(static_cast<double>(correct) / kRepeats));
  }
  return t;
}

}  // namespace

std::vector<Section> pfa_complexity() {
  std::vector<Section> out;
  out.push_back({"(a) Remaining key space vs ciphertexts (mean over 20 "
                 "random key/fault pairs)",
                 keyspace_curve(), ""});
  out.push_back({"(b) Ciphertexts needed for a unique AES-128 key (50 "
                 "random key/fault pairs, counted in steps of 32)",
                 ciphertexts_to_unique(),
                 "Reference: Zhang et al. report ~2000-2500 ciphertexts on "
                 "average for the missing-value attack (coupon collector "
                 "over 256 values x 16 bytes)."});
  out.push_back({"(c) Max-likelihood top guess vs ciphertexts (20 random "
                 "key/fault pairs)",
                 max_likelihood_top_guess(),
                 "The frequency peak must dominate 254 competitors at all 16 "
                 "bytes simultaneously, so it needs several times more data "
                 "than the missing value."});
  return out;
}

}  // namespace explframe::exp
