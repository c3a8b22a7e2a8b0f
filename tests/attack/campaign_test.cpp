// CampaignRunner: the parallel sweep layer. Covers the acceptance points of
// the Campaign API redesign — AES and PRESENT flow through the same code
// path, per-trial results are deterministic for a fixed master seed
// (independent of thread count), and the aggregate matches the individual
// trials it was built from.
#include "attack/campaign_runner.hpp"

#include <gtest/gtest.h>

namespace explframe::attack {
namespace {

kernel::SystemConfig vulnerable_cfg() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  return c;
}

RunnerConfig runner_cfg(crypto::CipherKind cipher, std::uint32_t trials,
                        std::uint32_t threads) {
  RunnerConfig cfg;
  cfg.trials = trials;
  cfg.threads = threads;
  cfg.system = vulnerable_cfg();
  if (cipher == crypto::CipherKind::kPresent80)
    cfg.system.dram.weak_cells.cells_per_mib = 512.0;
  cfg.campaign.cipher = cipher;
  cfg.campaign.templating.buffer_bytes = 4 * kMiB;
  cfg.campaign.templating.hammer_iterations = 100'000;
  cfg.campaign.ciphertext_budget =
      cipher == crypto::CipherKind::kPresent80 ? 2000 : 8000;
  cfg.seed = 42;
  return cfg;
}

TEST(CampaignRunner, TrialSeedsAreDeterministicAndDistinct) {
  const auto a = CampaignRunner::trial_seeds(7, 0);
  const auto b = CampaignRunner::trial_seeds(7, 0);
  EXPECT_EQ(a, b);
  const auto c = CampaignRunner::trial_seeds(7, 1);
  EXPECT_NE(a, c);
  const auto d = CampaignRunner::trial_seeds(8, 0);
  EXPECT_NE(a, d);
  // System and campaign streams must not collide within a trial…
  EXPECT_NE(a.first, a.second);
  // …nor across trials: a single incremented SplitMix64 state would make
  // trial t's campaign seed equal trial t+1's system seed.
  for (const std::uint64_t master : {7ull, 100ull, 0ull}) {
    for (std::uint32_t t = 0; t < 16; ++t) {
      const auto lo = CampaignRunner::trial_seeds(master, t);
      const auto hi = CampaignRunner::trial_seeds(master, t + 1);
      EXPECT_NE(lo.second, hi.first) << "master " << master << " trial " << t;
      EXPECT_NE(lo.first, hi.first);
      EXPECT_NE(lo.second, hi.second);
    }
  }
}

TEST(CampaignRunner, AesSweepAcrossTwoThreadsIsDeterministic) {
  // >= 8 trials across >= 2 worker threads (the acceptance bar), run twice:
  // every per-trial report must be bit-identical, and a single-threaded run
  // must produce the same results (scheduling independence).
  const RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 8, 2);
  CampaignAggregate first = CampaignRunner(cfg).run();
  CampaignAggregate second = CampaignRunner(cfg).run();
  RunnerConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  CampaignAggregate serial = CampaignRunner(serial_cfg).run();

  ASSERT_EQ(first.reports.size(), 8u);
  ASSERT_EQ(second.reports.size(), 8u);
  ASSERT_EQ(serial.reports.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(first.reports[i].same_outcome(second.reports[i]))
        << "trial " << i << " differs between identical runs";
    EXPECT_TRUE(first.reports[i].same_outcome(serial.reports[i]))
        << "trial " << i << " depends on thread count";
  }
  // The sweep must actually attack: at least one trial recovers the key on
  // this vulnerable module.
  EXPECT_GT(first.succeeded, 0u);
  EXPECT_GT(first.wall_seconds, 0.0);
  EXPECT_GT(first.trials_per_second(), 0.0);
}

TEST(CampaignRunner, AggregateMatchesSingleTrialRuns) {
  const RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 4, 2);
  const CampaignAggregate agg = CampaignRunner(cfg).run();

  std::uint32_t templated = 0, steered = 0, faulted = 0, recovered = 0,
                succeeded = 0;
  for (std::uint32_t i = 0; i < cfg.trials; ++i) {
    const CampaignReport r = CampaignRunner::run_trial(cfg, i);
    EXPECT_TRUE(r.same_outcome(agg.reports[i])) << "trial " << i;
    templated += r.template_found;
    steered += r.steered;
    faulted += r.fault_injected;
    recovered += r.key_recovered;
    succeeded += r.success;
  }
  EXPECT_EQ(agg.templated, templated);
  EXPECT_EQ(agg.steered, steered);
  EXPECT_EQ(agg.fault_injected, faulted);
  EXPECT_EQ(agg.key_recovered, recovered);
  EXPECT_EQ(agg.succeeded, succeeded);
  EXPECT_EQ(agg.trials, cfg.trials);
  EXPECT_EQ(agg.rows_scanned.count(), cfg.trials);

  std::uint32_t stage_total = 0;
  for (const auto& [stage, count] : agg.failure_stages) stage_total += count;
  EXPECT_EQ(stage_total, cfg.trials);
}

TEST(CampaignRunner, AesAndPresentShareTheCampaignPath) {
  // The same RunnerConfig shape drives both ciphers; only the enum (and the
  // cipher-conditioned knobs) differ. Both must produce cipher-tagged
  // reports with the right key sizes out of the one TemplatedCampaign.
  const CampaignAggregate aes =
      CampaignRunner(runner_cfg(crypto::CipherKind::kAes128, 4, 2)).run();
  const CampaignAggregate present =
      CampaignRunner(runner_cfg(crypto::CipherKind::kPresent80, 4, 2)).run();

  for (const CampaignReport& r : aes.reports) {
    EXPECT_EQ(r.cipher, crypto::CipherKind::kAes128);
    EXPECT_EQ(r.victim_key.size(), 16u);
  }
  for (const CampaignReport& r : present.reports) {
    EXPECT_EQ(r.cipher, crypto::CipherKind::kPresent80);
    EXPECT_EQ(r.victim_key.size(), 10u);
  }
  // Different ciphers, different trials — but the same phase accounting.
  EXPECT_LE(aes.succeeded, aes.key_recovered);
  EXPECT_LE(present.succeeded, present.key_recovered);
}

TEST(CampaignRunner, ZeroThreadsClampsToOne) {
  // RunnerConfig documents "0 = 1": a zero thread count must run serially,
  // not hang or crash, and produce exactly the single-threaded results.
  RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 2, 0);
  const CampaignAggregate zero = CampaignRunner(cfg).run();
  cfg.threads = 1;
  const CampaignAggregate one = CampaignRunner(cfg).run();
  ASSERT_EQ(zero.reports.size(), 2u);
  for (std::size_t i = 0; i < zero.reports.size(); ++i)
    EXPECT_TRUE(zero.reports[i].same_outcome(one.reports[i]))
        << "trial " << i;
}

TEST(CampaignRunner, MoreThreadsThanTrialsClampsToTrials) {
  // Oversubscription must not spawn idle workers or change results.
  RunnerConfig cfg = runner_cfg(crypto::CipherKind::kAes128, 2, 16);
  const CampaignAggregate wide = CampaignRunner(cfg).run();
  cfg.threads = 1;
  const CampaignAggregate serial = CampaignRunner(cfg).run();
  ASSERT_EQ(wide.reports.size(), 2u);
  for (std::size_t i = 0; i < wide.reports.size(); ++i)
    EXPECT_TRUE(wide.reports[i].same_outcome(serial.reports[i]))
        << "trial " << i;
}

TEST(CampaignRunner, DistinctMasterSeedsDecorrelateTrials) {
  const RunnerConfig cfg_a = runner_cfg(crypto::CipherKind::kAes128, 2, 2);
  RunnerConfig cfg_b = cfg_a;
  cfg_b.seed = cfg_a.seed + 1;
  const CampaignAggregate a = CampaignRunner(cfg_a).run();
  const CampaignAggregate b = CampaignRunner(cfg_b).run();
  std::size_t identical = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i)
    identical += a.reports[i].same_outcome(b.reports[i]) ? 1 : 0;
  EXPECT_LT(identical, a.reports.size());
  // Victim keys must differ: each trial's key derives from its own seed.
  EXPECT_NE(a.reports[0].victim_key, b.reports[0].victim_key);
}

}  // namespace
}  // namespace explframe::attack
