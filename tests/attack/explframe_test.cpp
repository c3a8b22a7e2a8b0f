// The AES-128 end-to-end campaign: one TemplatedCampaign, templated and
// forked once without a snapshot, as CampaignRunner runs a single trial.
#include <gtest/gtest.h>

#include "attack/campaign.hpp"
#include "support/rng.hpp"

namespace explframe::attack {
namespace {

kernel::SystemConfig attack_system_cfg(std::uint64_t seed) {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  c.seed = seed;
  return c;
}

CampaignConfig attack_cfg(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.cipher = crypto::CipherKind::kAes128;
  cfg.templating.buffer_bytes = 4 * kMiB;
  cfg.templating.hammer_iterations = 100'000;
  cfg.templating.both_polarities = true;
  cfg.ciphertext_budget = 8000;
  cfg.seed = seed;
  return cfg;
}

TEST(ExplFrameCampaignAes, EndToEndKeyRecovery) {
  // Deterministic: with this memory seed the template phase finds a usable
  // flip and every later phase must succeed.
  bool any_success = false;
  for (std::uint64_t seed = 1; seed <= 4 && !any_success; ++seed) {
    kernel::System sys(attack_system_cfg(seed));
    // An explicit key makes the success check independent of the
    // campaign's own victim-key bookkeeping.
    CampaignConfig cfg = attack_cfg(seed);
    cfg.victim.key = crypto::random_key(
        crypto::cipher_for(cfg.cipher), seed * 1000 + 1);
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;  // unlucky weak-cell layout
    EXPECT_TRUE(report.steered) << "seed " << seed;
    EXPECT_TRUE(report.fault_injected) << "seed " << seed;
    if (report.success) {
      any_success = true;
      EXPECT_EQ(report.recovered_key, cfg.victim.key);
      EXPECT_EQ(report.recovered_key.size(), 16u);
      EXPECT_GT(report.ciphertexts_used, 0u);
      EXPECT_EQ(report.failure_stage(), "none");
    }
  }
  EXPECT_TRUE(any_success);
}

TEST(ExplFrameCampaignAes, SteeringIsExactWithoutNoise) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    kernel::System sys(attack_system_cfg(seed));
    const CampaignConfig cfg = attack_cfg(seed);
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;
    // No contention: the planted frame must reach the victim's table page.
    EXPECT_EQ(report.victim_table_pfn, report.planted_pfn) << "seed " << seed;
    return;
  }
  GTEST_FAIL() << "no seed produced a usable template";
}

TEST(ExplFrameCampaignAes, ReportFailureStages) {
  CampaignReport r;
  EXPECT_EQ(r.failure_stage(), "templating");
  r.template_found = true;
  EXPECT_EQ(r.failure_stage(), "steering");
  r.steered = true;
  EXPECT_EQ(r.failure_stage(), "fault-injection");
  r.fault_injected = true;
  EXPECT_EQ(r.failure_stage(), "key-recovery");
  r.key_recovered = true;
  EXPECT_EQ(r.failure_stage(), "key-mismatch");
  r.success = true;
  EXPECT_EQ(r.failure_stage(), "none");
}

TEST(ExplFrameCampaignAes, ExplicitVictimKeyIsUsed) {
  // A key supplied in the config must survive seed derivation untouched.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    kernel::System sys(attack_system_cfg(seed));
    CampaignConfig cfg = attack_cfg(seed);
    cfg.victim.key.assign(16, 0xA7);
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    EXPECT_EQ(report.victim_key, cfg.victim.key);
    if (!report.success) continue;
    EXPECT_EQ(report.recovered_key, cfg.victim.key);
    return;
  }
  GTEST_FAIL() << "no seed recovered the explicit key";
}

TEST(ExplFrameCampaignAes, CrossCpuNoiseDoesNotStealFrame) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    kernel::System sys(attack_system_cfg(seed));
    CampaignConfig cfg = attack_cfg(seed);
    cfg.noise_ops = 50;
    cfg.noise_cpu = 1;  // noise on the other CPU: different pcp cache
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;
    EXPECT_TRUE(report.steered) << "seed " << seed;
    return;
  }
  GTEST_FAIL() << "no seed produced a usable template";
}

TEST(ExplFrameCampaignAes, SameCpuNoiseCanStealFrame) {
  // With heavy same-CPU noise between plant and victim allocation the
  // planted frame is usually consumed by the noise process instead.
  std::size_t attempted = 0;
  std::size_t steered = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    kernel::System sys(attack_system_cfg(seed));
    CampaignConfig cfg = attack_cfg(seed);
    cfg.noise_ops = 200;
    cfg.noise_cpu = 0;  // same CPU as the attack
    const auto report =
        TemplatedCampaign(sys, cfg, false).run_fork(cfg);
    if (!report.template_found) continue;
    ++attempted;
    steered += report.steered ? 1 : 0;
  }
  ASSERT_GT(attempted, 0u);
  EXPECT_LT(steered, attempted);  // noise must spoil at least one run
}

}  // namespace
}  // namespace explframe::attack
