// Why ExplFrame pairs with *persistent* fault analysis (§I: "sophisticated
// fault analysis techniques"; conclusion: "induce persistent faults [12]"):
// PFA on a persistent S-box fault against DFA on a transient round-9 fault
// on AES-128, and PFA on PRESENT-80 against AES-128 — data complexity
// scales with the S-box alphabet (16 vs 256 values).
#include <array>
#include <string>
#include <vector>

#include "crypto/present80.hpp"
#include "crypto/table_cipher.hpp"
#include "exp/bodies.hpp"
#include "fault/dfa_aes.hpp"
#include "fault/injection.hpp"
#include "fault/pfa_aes.hpp"
#include "fault/pfa_present.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace explframe::exp {

using namespace explframe::crypto;
using namespace explframe::fault;

namespace {

double measure_aes_pfa(std::uint64_t seed) {
  Rng rng(seed);
  Aes128::Key key;
  rng.fill_bytes(key);
  auto table = Aes128::sbox();
  SboxByteFault fault{static_cast<std::uint16_t>(rng.uniform(256)),
                      static_cast<std::uint8_t>(1u << rng.uniform(8))};
  const auto [v, v_new] = apply_fault(table, fault);
  const TableCipher& aes = cipher_for(CipherKind::kAes128);
  std::vector<std::uint8_t> round_keys(aes.round_key_size());
  aes.expand_key(key, round_keys);
  const auto context = aes.make_context(round_keys, table);
  // 32 blocks per step, drawn in one fill_bytes (the same bytes as 32
  // per-block draws) and encrypted in one batch.
  std::array<std::uint8_t, 32 * 16> plaintexts;
  std::array<std::uint8_t, 32 * 16> ciphertexts;
  AesPfa pfa;
  std::size_t used = 0;
  while (used < 60'000) {
    rng.fill_bytes(plaintexts);
    aes.encrypt_batch(*context, plaintexts, ciphertexts);
    pfa.add_ciphertext_batch(ciphertexts);
    used += 32;
    if (pfa.recover_round10(PfaStrategy::kMissingValue, v, v_new)) break;
  }
  return static_cast<double>(used);
}

double measure_aes_dfa_pairs(std::uint64_t seed) {
  Rng rng(seed);
  Aes128::Key key;
  rng.fill_bytes(key);
  const auto rk = Aes128::expand_key(key);
  AesDfa dfa;
  std::size_t pairs = 0;
  while (pairs < 64) {
    Aes128::Block pt;
    rng.fill_bytes(pt);
    const auto byte = static_cast<std::size_t>(rng.uniform(16));
    const auto mask = static_cast<std::uint8_t>(1 + rng.uniform(255));
    const auto good = Aes128::encrypt(pt, rk);
    const auto bad =
        Aes128::encrypt_with_transient_fault(pt, rk, 9, byte, mask);
    if (dfa.add_pair(good, bad)) ++pairs;
    if (dfa.recover_round10().has_value()) break;
  }
  return static_cast<double>(pairs);
}

double measure_present_pfa(std::uint64_t seed) {
  Rng rng(seed);
  Present80::Key key;
  rng.fill_bytes(key);
  const auto rk = Present80::expand_key(key);
  auto table = Present80::sbox();
  SboxByteFault fault{static_cast<std::uint16_t>(rng.uniform(16)),
                      static_cast<std::uint8_t>(1u << rng.uniform(4))};
  const auto v = apply_fault(table, fault).first;
  PresentPfa pfa;
  std::size_t used = 0;
  while (used < 10'000) {
    for (int i = 0; i < 8; ++i)
      pfa.add_ciphertext(Present80::encrypt_with_sbox(rng.next(), rk, table));
    used += 8;
    if (pfa.recover_k32(v)) break;
  }
  return static_cast<double>(used);
}

}  // namespace

std::vector<Section> fault_techniques() {
  constexpr int kRepeats = 25;
  Samples pfa_aes, dfa_pairs, pfa_present;
  for (int i = 0; i < kRepeats; ++i) {
    pfa_aes.add(measure_aes_pfa(400 + i));
    dfa_pairs.add(measure_aes_dfa_pairs(500 + i));
    pfa_present.add(measure_present_pfa(600 + i));
  }
  const auto mean = [](const Samples& s) {
    return std::to_string(static_cast<int>(s.mean()));
  };

  Table t({"technique", "fault primitive", "data needed (mean)",
           "needs chosen/correct pairs?", "fault timing"});
  t.row("PFA on AES-128 (ExplFrame)",
        "one persistent S-box bit (Rowhammer flip)",
        mean(pfa_aes) + " faulty ciphertexts", "no - ciphertext-only",
        "none (fault persists)");
  t.row("DFA on AES-128 (Piret-Quisquater style)",
        "transient byte fault, round 9 only",
        mean(dfa_pairs) + " correct/faulty pairs",
        "yes - same plaintext twice", "cycle-accurate injection");
  t.row("PFA on PRESENT-80", "one persistent S-box bit",
        mean(pfa_present) + " faulty ciphertexts (+2^16 search)",
        "no - ciphertext-only", "none (fault persists)");

  Table t2({"attack", "mean", "median", "p90"});
  t2.row("AES PFA ciphertexts", pfa_aes.mean(), pfa_aes.median(),
         pfa_aes.percentile(90));
  t2.row("AES DFA pairs", dfa_pairs.mean(), dfa_pairs.median(),
         dfa_pairs.percentile(90));
  t2.row("PRESENT PFA ciphertexts", pfa_present.mean(), pfa_present.median(),
         pfa_present.percentile(90));

  std::vector<Section> out;
  out.push_back({"(a) What each technique demands of the attacker (" +
                     std::to_string(kRepeats) + " trials each)",
                 std::move(t), ""});
  out.push_back({"(b) Data complexity detail", std::move(t2),
                 "Takeaway: a Rowhammer-induced table fault is persistent "
                 "and untimed, which is exactly PFA's model — DFA would "
                 "require transient faults timed to one round, which "
                 "Rowhammer cannot deliver. PRESENT's 16-value S-box "
                 "saturates ~40x faster than AES's 256-value one."});
  return out;
}

}  // namespace explframe::exp
