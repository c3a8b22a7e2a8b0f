// Test-only reference harvest: the per-call loop the campaign ran before
// the batched fast path.
//
// reference_trial() reproduces CampaignRunner::run_trial on the same
// machine and seeds, driving phases 2-4 through TemplatedCampaign's public
// steps and then harvesting one plaintext at a time: fill one block,
// VictimCipherService::encrypt (a page-table walk per call),
// Analysis::add_ciphertext, and a key-recovery attempt every
// check_interval ciphertexts and at the budget.
// tests/attack/harvest_differential_test.cpp asserts that production's
// chunked encrypt_batch/add_ciphertext_batch harvest reports exactly what
// this loop reports.
//
// NEVER include this from src/ — it exists so the old harvest stays
// testable against, not so it stays usable.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/campaign_runner.hpp"
#include "kernel/system.hpp"
#include "support/rng.hpp"

namespace explframe::attack::reference {

/// Phases 5 + 6, one ciphertext per call (see the file comment).
inline void per_call_harvest(TemplatedCampaign& campaign,
                             const CampaignConfig& config,
                             CampaignReport& report) {
  const crypto::TableCipher& cipher = campaign.cipher();
  VictimCipherService& victim = campaign.victim();
  auto analysis =
      fault::make_analysis(config.analysis, cipher, campaign.fault_model());
  Rng rng(campaign.plaintext_seed());
  std::vector<std::uint8_t> pt(cipher.block_size());
  std::vector<std::uint8_t> ct(cipher.block_size());
  if (analysis->wants_known_pair()) {
    rng.fill_bytes(pt);
    victim.encrypt(pt, ct);
    analysis->set_known_pair(pt, ct);
  }
  std::uint32_t check_interval = config.analysis_check_interval;
  if (check_interval == 0)
    check_interval = cipher.table_size() >= 256 ? 256 : 25;
  for (std::uint32_t i = 0; i < config.ciphertext_budget; ++i) {
    rng.fill_bytes(pt);
    victim.encrypt(pt, ct);
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
