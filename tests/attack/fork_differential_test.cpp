// The snapshot/fork acceptance tests:
//
//  * fork ≡ fresh at campaign level — for EVERY registered scenario
//    (including all four defence configurations), both forks of a
//    two-variant run_trial_group equal the single-shot run_trial field for
//    field, template_time included; the second fork only matches if the
//    snapshot restore rewound the first one exactly;
//  * run_trial_group ≡ run_trial — a variant family sharing one
//    template_key, executed off one shared templated machine, reports
//    exactly what independent fresh trials report;
//  * thread counts stay invisible — the full CampaignRunner aggregate is
//    identical at 1 and 3 workers;
//  * SweepRunner's template-sharing groups emit the records every point
//    reports when run on its own through scenario::run_scenario (a
//    shared-seed grid over a post-template axis is what actually forms a
//    multi-point group).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "report_equal.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace explframe::attack {
namespace {

TEST(ForkDifferential, ForkedAndFreshReportsIdenticalForEveryScenario) {
  for (const scenario::Scenario& s : scenario::Registry::builtin().all()) {
    const RunnerConfig cfg = s.runner_config();
    // Two trials per scenario keep the sweep fast while still covering
    // distinct seeds/machines.
    const std::uint32_t trials = std::min(cfg.trials, 2u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const std::vector<CampaignReport> forks =
          CampaignRunner::run_trial_group(cfg, {cfg.campaign, cfg.campaign},
                                          trial);
      const CampaignReport fresh = CampaignRunner::run_trial(cfg, trial);
      const std::string label = s.name + " trial " + std::to_string(trial);
      ASSERT_EQ(forks.size(), 2u) << label;
      EXPECT_REPORTS_EQUAL(forks[0], fresh, label + " fork 0");
      EXPECT_REPORTS_EQUAL(forks[1], fresh, label + " fork 1");
    }
  }
}

TEST(ForkDifferential, TrialGroupMatchesIndependentTrials) {
  const scenario::Scenario& s = scenario::builtin_scenario("quickstart");
  RunnerConfig base = s.runner_config();
  // Variants differ only in post-template knobs (one shared template_key):
  // the harvest budget, the analysis cadence and the contention window.
  std::vector<CampaignConfig> variants;
  for (const std::uint32_t budget : {1500u, 4000u, 8000u}) {
    CampaignConfig cfg = base.campaign;
    cfg.ciphertext_budget = budget;
    variants.push_back(cfg);
  }
  variants.push_back(base.campaign);
  variants.back().analysis_check_interval = 64;
  variants.push_back(base.campaign);
  variants.back().noise_ops = 10;

  for (std::uint32_t trial = 0; trial < 2; ++trial) {
    const std::vector<CampaignReport> grouped =
        CampaignRunner::run_trial_group(base, variants, trial);
    ASSERT_EQ(grouped.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      RunnerConfig single = base;
      single.campaign = variants[i];
      const CampaignReport fresh = CampaignRunner::run_trial(single, trial);
      const std::string label =
          "variant " + std::to_string(i) + " trial " + std::to_string(trial);
      EXPECT_REPORTS_EQUAL(grouped[i], fresh, label);
    }
  }
}

TEST(ForkDifferential, ThreadCountInvisible) {
  const scenario::Scenario& s =
      scenario::builtin_scenario("present-single-flip");
  RunnerConfig cfg = s.runner_config();
  cfg.trials = 3;

  RunnerConfig one = cfg;
  one.threads = 1;
  RunnerConfig three = cfg;
  three.threads = 3;
  const CampaignAggregate a = CampaignRunner(one).run();
  const CampaignAggregate b = CampaignRunner(three).run();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i)
    EXPECT_REPORTS_EQUAL(a.reports[i], b.reports[i],
                         "trial " + std::to_string(i));
}

TEST(ForkDifferential, SweepGroupsMatchStandalonePoints) {
  // A shared-seed grid over a post-template axis: every point shares one
  // template_key + master seed, so the sweep forms ONE multi-point group.
  sweep::SweepSpec spec;
  spec.name = "fork-test-grid";
  spec.title = "ciphertext-budget curve off one templated base";
  spec.base = "quickstart";
  spec.seed_mode = sweep::SeedMode::kShared;
  spec.axes.push_back(
      sweep::Axis{"ciphertext_budget", {"1500", "4000", "8000"}});

  sweep::SweepRunOptions options;
  options.threads = 1;
  std::string error;
  const auto result =
      sweep::run_sweep(spec, scenario::Registry::builtin(), options, &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 3u);
  for (const sweep::PointRecord& record : result->records) {
    const sweep::SweepPoint& point = result->points[record.index];
    EXPECT_EQ(record.id, point.id);
    std::vector<sweep::TrialRow> standalone;
    for (const CampaignReport& report :
         scenario::run_scenario(point.scenario, 1).aggregate.reports)
      standalone.push_back(sweep::TrialRow::from_report(report));
    EXPECT_EQ(record.trials, standalone) << point.id;
  }
}

}  // namespace
}  // namespace explframe::attack
