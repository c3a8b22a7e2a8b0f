// ExplFrame against PRESENT-80 — the same TemplatedCampaign code path as
// the AES tests, differing only in CampaignConfig::cipher, plus the
// PRESENT-specific victim behaviours (nibble table, dead high bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "../crypto/reference_ciphers.hpp"
#include "attack/campaign.hpp"
#include "attack/victim.hpp"
#include "crypto/present80.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace explframe::attack {
namespace {

using crypto::Present80;

kernel::SystemConfig present_system_cfg(std::uint64_t seed) {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  // Dense population: the PRESENT table is a 16-byte target (vs 256 for
  // AES), so templating needs far more candidate cells.
  c.dram.weak_cells.cells_per_mib = 512.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  c.seed = seed;
  return c;
}

CampaignConfig present_attack_cfg(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.cipher = crypto::CipherKind::kPresent80;
  cfg.templating.buffer_bytes = 4 * kMiB;
  cfg.templating.hammer_iterations = 100'000;
  cfg.ciphertext_budget = 2000;
  cfg.seed = seed;
  return cfg;
}

const crypto::TableCipher& present_cipher() {
  return crypto::cipher_for(crypto::CipherKind::kPresent80);
}

VictimConfig present_victim_cfg(std::uint64_t key_seed) {
  VictimConfig vc;
  vc.key = crypto::random_key(present_cipher(), key_seed);
  return vc;
}

Present80::Key to_present_key(const std::vector<std::uint8_t>& bytes) {
  Present80::Key k{};
  std::copy(bytes.begin(), bytes.end(), k.begin());
  return k;
}

std::uint64_t encrypt_u64(VictimCipherService& victim, std::uint64_t pt) {
  std::array<std::uint8_t, 8> ct{};
  victim.encrypt(u64_to_le_bytes(pt), ct);
  return le_bytes_to_u64(ct);
}

TEST(VictimPresentService, EncryptsCorrectly) {
  kernel::SystemConfig c = present_system_cfg(1);
  c.dram.weak_cells.cells_per_mib = 0.0;
  kernel::System sys(c);
  const VictimConfig vc = present_victim_cfg(3);
  VictimCipherService victim(sys, 0, present_cipher(), vc);
  victim.start();
  victim.install_tables();
  const auto rk = Present80::expand_key(to_present_key(vc.key));
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t pt = rng.next();
    EXPECT_EQ(encrypt_u64(victim, pt),
              crypto::reference::present_encrypt(pt, rk));
  }
  EXPECT_FALSE(victim.table_corrupted());
}

TEST(VictimPresentService, LowNibbleCorruptionDetectedAndLive) {
  kernel::SystemConfig c = present_system_cfg(1);
  c.dram.weak_cells.cells_per_mib = 0.0;
  kernel::System sys(c);
  const VictimConfig vc = present_victim_cfg(4);
  VictimCipherService victim(sys, 0, present_cipher(), vc);
  victim.start();
  victim.install_tables();
  const auto phys = sys.phys_of(
      victim.task(), victim.table_page_va() + vc.sbox_offset + 5);
  sys.dram().write_byte(phys, sys.dram().read_byte(phys) ^ 0x2);
  EXPECT_TRUE(victim.table_corrupted());
  auto faulty = Present80::sbox();
  faulty[5] ^= 0x2;
  const auto rk = Present80::expand_key(to_present_key(vc.key));
  Rng rng(4);
  const std::uint64_t pt = rng.next();
  EXPECT_EQ(encrypt_u64(victim, pt),
            Present80::encrypt_with_sbox(
                pt, rk, std::span<const std::uint8_t, 16>(faulty)));
}

TEST(VictimPresentService, HighNibbleCorruptionIsMaskedOut) {
  kernel::SystemConfig c = present_system_cfg(1);
  c.dram.weak_cells.cells_per_mib = 0.0;
  kernel::System sys(c);
  const VictimConfig vc = present_victim_cfg(5);
  VictimCipherService victim(sys, 0, present_cipher(), vc);
  victim.start();
  victim.install_tables();
  const auto phys = sys.phys_of(
      victim.task(), victim.table_page_va() + vc.sbox_offset + 5);
  sys.dram().write_byte(phys, sys.dram().read_byte(phys) ^ 0x80);
  // The stored byte changed but the implementation masks the high nibble.
  EXPECT_FALSE(victim.table_corrupted());
  const auto rk = Present80::expand_key(to_present_key(vc.key));
  Rng rng(5);
  const std::uint64_t pt = rng.next();
  EXPECT_EQ(encrypt_u64(victim, pt),
            crypto::reference::present_encrypt(pt, rk));
}

TEST(ExplFrameCampaignPresent, EndToEndKeyRecovery) {
  bool any_success = false;
  std::size_t attempted = 0;
  for (std::uint64_t seed = 1; seed <= 6 && !any_success; ++seed) {
    kernel::System sys(present_system_cfg(seed));
    // An explicit key makes the success check independent of the
    // campaign's own victim-key bookkeeping.
    CampaignConfig cfg = present_attack_cfg(seed);
    cfg.victim.key = crypto::random_key(present_cipher(), seed * 131 + 17);
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;  // 16-byte window: misses happen
    ++attempted;
    EXPECT_TRUE(report.steered) << "seed " << seed;
    EXPECT_TRUE(report.fault_injected) << "seed " << seed;
    if (report.success) {
      any_success = true;
      EXPECT_EQ(report.recovered_key, cfg.victim.key);
      EXPECT_EQ(report.recovered_key.size(), 10u);
      EXPECT_LE(report.ciphertexts_used, 2000u);
      EXPECT_LE(report.residual_search, 1u << 16);
      EXPECT_EQ(report.failure_stage(), "none");
    }
  }
  EXPECT_TRUE(any_success) << "attempted " << attempted;
}

TEST(ExplFrameCampaignPresent, MaxLikelihoodIsRejected) {
  // Fail-fast in the constructor, not mid-sweep in make_analysis.
  kernel::System sys(present_system_cfg(1));
  CampaignConfig cfg = present_attack_cfg(1);
  cfg.analysis = fault::AnalysisKind::kPfaMaxLikelihood;
  EXPECT_DEATH({ TemplatedCampaign c(sys, cfg, false); }, "AES-only");
}

TEST(ExplFrameCampaignPresent, OnlyLiveBitsAreUsableTemplates) {
  // Any flip the campaign accepts for PRESENT must target a live (low
  // nibble) bit — dead-bit flips cannot fault the cipher.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    kernel::System sys(present_system_cfg(seed));
    const CampaignConfig cfg = present_attack_cfg(seed);
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;
    EXPECT_LT(report.chosen.bit, 4) << "seed " << seed;
    EXPECT_NE(report.fault_mask & 0x0F, 0) << "seed " << seed;
    EXPECT_EQ(report.fault_mask & 0xF0, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace explframe::attack
