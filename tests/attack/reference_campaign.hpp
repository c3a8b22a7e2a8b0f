// Test-only reference harvest: the per-block reload path and the per-call
// loop the campaign ran before the batched fast path.
//
// reload_encrypt() is the test-side reload oracle: it encrypts one block
// the way the victim did before encrypt_batch, re-reading the stored table
// and the round keys from simulated memory and running the cipher's
// reference primitive (Aes128::encrypt_with_sbox /
// Present80::encrypt_with_sbox) over them. It shares no code with
// crypto::TableCipher's EncryptContext path it checks, and it does not
// bump VictimCipherService::encryptions().
//
// reference_trial() reproduces CampaignRunner::run_trial on the same
// machine and seeds, driving phases 2-4 through TemplatedCampaign's public
// steps and then harvesting one plaintext at a time: fill one block,
// reload_encrypt (a page-table walk per call), Analysis::add_ciphertext,
// and a key-recovery attempt every check_interval ciphertexts and at the
// budget. tests/attack/harvest_differential_test.cpp asserts that
// production's chunked encrypt_batch/add_ciphertext_batch harvest reports
// exactly what this loop reports.
//
// NEVER include this from src/ — it exists so the old harvest stays
// testable against, not so it stays usable (tools/lint_headers.sh fails
// on any src/, tools/ or examples/ include of tests/).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/campaign_runner.hpp"
#include "attack/victim.hpp"
#include "crypto/aes128.hpp"
#include "crypto/present80.hpp"
#include "kernel/system.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace explframe::attack::reference {

/// Encrypt one block (the cipher's block_size() bytes) through `victim`'s
/// stored table and round keys, reloading both from `system`'s memory —
/// see the file comment.
inline void reload_encrypt(kernel::System& system,
                           VictimCipherService& victim,
                           std::span<const std::uint8_t> plaintext,
                           std::span<std::uint8_t> ciphertext) {
  const crypto::TableCipher& cipher = victim.cipher();
  EXPLFRAME_CHECK(plaintext.size() == cipher.block_size());
  EXPLFRAME_CHECK(ciphertext.size() == cipher.block_size());
  // Stack storage sized for the largest cipher: no allocation per block.
  std::array<std::uint8_t, 256> table_bytes{};
  std::array<std::uint8_t, 256> rk_bytes{};
  const std::span<std::uint8_t> table =
      std::span(table_bytes).first(cipher.table_size());
  const std::span<std::uint8_t> round_keys =
      std::span(rk_bytes).first(cipher.round_key_size());
  EXPLFRAME_CHECK(system.mem_read(
      victim.task(), victim.table_page_va() + victim.config().sbox_offset,
      table));
  EXPLFRAME_CHECK(
      system.mem_read(victim.task(), victim.keys_page_va(), round_keys));
  if (cipher.kind() == crypto::CipherKind::kAes128) {
    crypto::Aes128::Block pt;
    std::copy(plaintext.begin(), plaintext.end(), pt.begin());
    crypto::Aes128::RoundKeys rk{};
    for (std::size_t r = 0; r < 11; ++r)
      for (std::size_t i = 0; i < 16; ++i) rk[r][i] = round_keys[16 * r + i];
    const crypto::Aes128::Block ct = crypto::Aes128::encrypt_with_sbox(
        pt, rk, std::span<const std::uint8_t, 256>(table.data(), 256));
    std::copy(ct.begin(), ct.end(), ciphertext.begin());
    return;
  }
  const std::uint64_t pt = le_bytes_to_u64(plaintext);
  crypto::Present80::RoundKeys rk{};
  for (std::size_t r = 0; r < 32; ++r)
    rk[r] = le_bytes_to_u64(round_keys.subspan(8 * r, 8));
  // Only the low nibble of each stored byte is live.
  std::array<std::uint8_t, 16> nibbles{};
  for (std::size_t i = 0; i < 16; ++i)
    nibbles[i] = static_cast<std::uint8_t>(table[i] & 0xF);
  const std::uint64_t ct = crypto::Present80::encrypt_with_sbox(
      pt, rk, std::span<const std::uint8_t, 16>(nibbles));
  u64_to_le_bytes(ct, ciphertext);
}

/// Phases 5 + 6, one ciphertext per call (see the file comment).
inline void per_call_harvest(TemplatedCampaign& campaign,
                             const CampaignConfig& config,
                             CampaignReport& report) {
  const crypto::TableCipher& cipher = campaign.cipher();
  kernel::System& system = campaign.system();
  VictimCipherService& victim = campaign.victim();
  auto analysis =
      fault::make_analysis(config.analysis, cipher, campaign.fault_model());
  Rng rng(campaign.plaintext_seed());
  std::vector<std::uint8_t> pt(cipher.block_size());
  std::vector<std::uint8_t> ct(cipher.block_size());
  if (analysis->wants_known_pair()) {
    rng.fill_bytes(pt);
    reload_encrypt(system, victim, pt, ct);
    analysis->set_known_pair(pt, ct);
  }
  std::uint32_t check_interval = config.analysis_check_interval;
  if (check_interval == 0)
    check_interval = cipher.table_size() >= 256 ? 256 : 25;
  for (std::uint32_t i = 0; i < config.ciphertext_budget; ++i) {
    rng.fill_bytes(pt);
    reload_encrypt(system, victim, pt, ct);
    analysis->add_ciphertext(ct);
    if ((i + 1) % check_interval == 0 || i + 1 == config.ciphertext_budget) {
      if (auto key = analysis->recover_key()) {
        report.key_recovered = true;
        report.recovered_key = std::move(*key);
        report.residual_search = analysis->residual_search();
        report.ciphertexts_used = i + 1;
        break;
      }
    }
  }
  if (!report.key_recovered) report.ciphertexts_used = config.ciphertext_budget;
  report.success =
      report.key_recovered && report.recovered_key == report.victim_key;
}

/// CampaignRunner::run_trial with the per-call harvest in place of the
/// batched one.
inline CampaignReport reference_trial(const RunnerConfig& config,
                                      std::uint32_t trial) {
  const auto [system_seed, campaign_seed] =
      CampaignRunner::trial_seeds(config.seed, trial);
  kernel::SystemConfig sys_cfg = config.system;
  sys_cfg.seed = system_seed;
  kernel::System sys(sys_cfg);
  CampaignConfig cfg = config.campaign;
  cfg.seed = campaign_seed;
  TemplatedCampaign campaign(sys, cfg, /*take_snapshot=*/false);
  CampaignReport report = campaign.template_result();
  if (report.template_found) {
    campaign.plant(report);
    if (cfg.noise_ops > 0) campaign.noise(cfg);
    campaign.steer(report);
    campaign.hammer(report);
    if (report.steered && report.fault_injected)
      per_call_harvest(campaign, cfg, report);
  }
  report.total_time = sys.now() - campaign.start_time();
  return report;
}

}  // namespace explframe::attack::reference
