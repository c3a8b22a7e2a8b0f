// The batched-harvest acceptance tests:
//
//  * batch ≡ per-call at campaign level — for EVERY registered scenario,
//    CampaignRunner::run_trial (batched harvest) must report exactly what
//    the test-side per-call reference (reference_campaign.hpp) reports,
//    field for field (the optimisation is observation-free);
//  * a TemplatedCampaign run must not mutate its config (templating seed,
//    seed-derived victim key), so campaigns are re-runnable and two fresh
//    campaigns with the same seed report identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "attack/campaign_runner.hpp"
#include "reference_campaign.hpp"
#include "report_equal.hpp"
#include "scenario/registry.hpp"

namespace explframe::attack {
namespace {

TEST(HarvestDifferential, BatchedMatchesPerCallReferenceForEveryScenario) {
  for (const scenario::Scenario& s : scenario::Registry::builtin().all()) {
    const RunnerConfig cfg = s.runner_config();
    // Two trials per scenario keep the sweep fast while still covering
    // distinct seeds/machines.
    const std::uint32_t trials = std::min(cfg.trials, 2u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const CampaignReport batched = CampaignRunner::run_trial(cfg, trial);
      const CampaignReport per_call = reference::reference_trial(cfg, trial);
      const std::string label = s.name + " trial " + std::to_string(trial);
      EXPECT_REPORTS_EQUAL(batched, per_call, label);
    }
  }
}

TEST(HarvestDifferential, RunDoesNotMutateConfigAndIsRepeatable) {
  const scenario::Scenario& s = scenario::builtin_scenario("quickstart");
  RunnerConfig cfg = s.runner_config();

  const auto run_fresh = [&] {
    kernel::SystemConfig sys_cfg = cfg.system;
    sys_cfg.seed = 7;
    kernel::System sys(sys_cfg);
    CampaignConfig campaign_cfg = cfg.campaign;
    campaign_cfg.seed = 7;
    TemplatedCampaign campaign(sys, campaign_cfg, /*take_snapshot=*/false);
    const CampaignReport report = campaign.run_fork(campaign_cfg);
    // The config must read back exactly as configured: empty victim key
    // (the derived key lives in the report only) and untouched templating
    // seed.
    EXPECT_TRUE(campaign.config().victim.key.empty());
    EXPECT_EQ(campaign.config().templating.seed, campaign_cfg.templating.seed);
    return report;
  };

  const CampaignReport first = run_fresh();
  const CampaignReport second = run_fresh();
  EXPECT_REPORTS_EQUAL(first, second, "repeat");
  // The derived victim key made it into the report even though the config
  // stayed clean.
  EXPECT_FALSE(first.victim_key.empty());
}

}  // namespace
}  // namespace explframe::attack
