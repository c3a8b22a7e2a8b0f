// PERF — batched harvest pipeline.
//
// The online phase of the attack is 10^4..10^6 faulty ciphertexts per
// trial; with the hammer phase collapsed to near-zero by the burst path,
// harvest throughput is what bounds every sweep. This bench measures
// ciphertexts/sec through a victim for each cipher:
//
//   per-call — the test-side reload oracle (reference::reload_encrypt in
//              tests/attack/reference_campaign.hpp): two simulated
//              page-table walks + round-key decode + the reference
//              primitive per block, the victim's pre-batch data path;
//   batch    — VictimCipherService::encrypt_batch(): one snapshot +
//              decoded EncryptContext per memory epoch, blocks looped
//              inside one dispatch.
//
// Both paths produce byte-identical ciphertext streams (asserted here on a
// sample, and by tests/attack/harvest_differential_test.cpp in depth).
// Writes the headline numbers to BENCH_harvest.json (override with
// --json=PATH) so CI can archive the perf trajectory per PR. Exits
// non-zero if the batch path fails its speedup bar (>= 10x for AES-128,
// >= 1x for every cipher) — the CI smoke check.
#include <cstdint>
#include <iostream>
#include <vector>

#include "../tests/attack/reference_campaign.hpp"
#include "attack/victim.hpp"
#include "harness.hpp"
#include "scenario/scenario.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace explframe;
using namespace explframe::attack;

namespace {

/// 64 MiB, two CPUs, no weak cells: the harvest path never sees a flip.
kernel::SystemConfig quiet_system() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.seed = 7;
  scenario::apply_weak_cell_profile(scenario::WeakCellProfile::kQuiet, c);
  return c;
}

struct VictimHarness {
  kernel::System system;
  VictimCipherService victim;

  explicit VictimHarness(const crypto::TableCipher& cipher)
      : system(quiet_system()),
        victim(system, 0, cipher,
               [&] {
                 VictimConfig vc;
                 vc.key = crypto::random_key(cipher, 99);
                 return vc;
               }()) {
    victim.start();
    victim.install_tables();
  }
};

double per_call_rate(crypto::CipherKind kind, std::uint64_t blocks) {
  const crypto::TableCipher& cipher = crypto::cipher_for(kind);
  VictimHarness h(cipher);
  const std::size_t block = cipher.block_size();
  std::vector<std::uint8_t> pt(block);
  std::vector<std::uint8_t> ct(block);
  Rng rng(1234);
  const double secs = bench::time_seconds([&] {
    for (std::uint64_t i = 0; i < blocks; ++i) {
      rng.fill_bytes(pt);
      reference::reload_encrypt(h.system, h.victim, pt, ct);
    }
  });
  return secs > 0.0 ? static_cast<double>(blocks) / secs : 0.0;
}

double batch_rate(crypto::CipherKind kind, std::uint64_t blocks,
                       std::uint32_t chunk) {
  const crypto::TableCipher& cipher = crypto::cipher_for(kind);
  VictimHarness h(cipher);
  const std::size_t block = cipher.block_size();
  std::vector<std::uint8_t> pts(chunk * block);
  std::vector<std::uint8_t> cts(chunk * block);
  Rng rng(1234);
  const double secs = bench::time_seconds([&] {
    for (std::uint64_t done = 0; done < blocks;) {
      const std::uint64_t n = std::min<std::uint64_t>(chunk, blocks - done);
      const std::span<std::uint8_t> pt_span(pts.data(), n * block);
      rng.fill_bytes(pt_span);
      h.victim.encrypt_batch(pt_span, {cts.data(), n * block});
      done += n;
    }
  });
  return secs > 0.0 ? static_cast<double>(blocks) / secs : 0.0;
}

/// Sanity: the two paths emit identical ciphertext bytes for the same
/// plaintext stream (the bench should never publish a speedup for a path
/// that drifted).
bool streams_identical(crypto::CipherKind kind, std::uint32_t blocks) {
  const crypto::TableCipher& cipher = crypto::cipher_for(kind);
  const std::size_t block = cipher.block_size();
  VictimHarness a(cipher);
  VictimHarness b(cipher);
  std::vector<std::uint8_t> pts(blocks * block);
  Rng rng(5678);
  rng.fill_bytes(pts);
  std::vector<std::uint8_t> scalar(blocks * block);
  for (std::uint32_t i = 0; i < blocks; ++i)
    reference::reload_encrypt(a.system, a.victim,
                              {pts.data() + i * block, block},
                              {scalar.data() + i * block, block});
  std::vector<std::uint8_t> batched(blocks * block);
  b.victim.encrypt_batch(pts, batched);
  return scalar == batched;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags_or_exit(argc, argv, {"BENCH_harvest.json", {}});

  print_banner(std::cout, "PERF: batched harvest pipeline");

  bench::Verdict verdict;
  for (const auto kind :
       {crypto::CipherKind::kAes128, crypto::CipherKind::kPresent80})
    verdict.require(streams_identical(kind, 512),
                    "batch and per-call ciphertext streams differ for ",
                    crypto::to_string(kind));
  if (!verdict.pass()) return 1;

  // The per-call path pays its overhead per block; keep its budget moderate
  // so the bench stays quick. The batch path gets a larger budget so its
  // rate is not warm-up-dominated. Chunk size matches the campaign's AES
  // check cadence.
  constexpr std::uint64_t kSlowBlocks = 200'000;
  constexpr std::uint64_t kFastBlocks = 2'000'000;
  constexpr std::uint32_t kChunk = 256;

  const double aes_slow =
      per_call_rate(crypto::CipherKind::kAes128, kSlowBlocks);
  const double aes_fast =
      batch_rate(crypto::CipherKind::kAes128, kFastBlocks, kChunk);
  const double present_slow =
      per_call_rate(crypto::CipherKind::kPresent80, kSlowBlocks);
  const double present_fast =
      batch_rate(crypto::CipherKind::kPresent80, kFastBlocks, kChunk);

  const double aes_speedup = aes_slow > 0.0 ? aes_fast / aes_slow : 0.0;
  const double present_speedup =
      present_slow > 0.0 ? present_fast / present_slow : 0.0;

  std::cout << "\nharvest throughput (host wall clock):\n";
  Table t({"cipher", "path", "ciphertexts/sec", "speedup"});
  t.row("aes128", "per-call", aes_slow, 1.0);
  t.row("aes128", "batch", aes_fast, aes_speedup);
  t.row("present80", "per-call", present_slow, 1.0);
  t.row("present80", "batch", present_fast, present_speedup);
  t.print(std::cout);

  // The acceptance bars: >= 10x for the AES harvest (the paper's headline
  // cipher), and the batch path must never lose to per-call.
  verdict.require(aes_speedup >= 10.0, "aes128 batch speedup ", aes_speedup,
                  " < 10x");
  verdict.require(present_speedup >= 1.0, "present80 batch speedup ",
                  present_speedup, " < 1x");
  bench::Json json = bench::bench_json("harvest");
  json.add("aes128_per_call_cts_per_sec", aes_slow)
      .add("aes128_batch_cts_per_sec", aes_fast)
      .add("aes128_speedup", aes_speedup)
      .add("present80_per_call_cts_per_sec", present_slow)
      .add("present80_batch_cts_per_sec", present_fast)
      .add("present80_speedup", present_speedup);
  return bench::finish(json, flags.json, verdict);
}
