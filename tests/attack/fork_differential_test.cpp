// The snapshot/fork acceptance tests:
//
//  * fork ≡ fresh at campaign level — for EVERY registered scenario
//    (including all four defence configurations), both forks of a
//    two-variant run_trial_group equal the single-shot run_trial field for
//    field, template_time included; the second fork only matches if the
//    snapshot restore rewound the first one exactly;
//  * run_trial_group ≡ run_trial — a variant family sharing one
//    template, executed off one shared templated machine, reports
//    exactly what independent fresh trials report;
//  * thread counts stay invisible — the full CampaignRunner aggregate is
//    identical at 1 and 3 workers;
//  * SweepRunner's template-sharing groups emit the records every point
//    reports when run on its own through scenario::run_scenario (a
//    shared-seed grid over a post-template axis is what actually forms a
//    multi-point group);
//  * the sharing rule itself — a variant that differs from the base only
//    in a post-template field shares its template (run_fork accepts it,
//    template_groups puts it in the base's group), and a variant that
//    differs in one field of any template-shaping aggregate does not
//    (run_fork dies, the variant gets a group of its own).
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
  // Variants differ only in post-template knobs (one shared template):
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
  // template + master seed, so the sweep forms ONE multi-point group.
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

/// One-field variants of `base` that still share its template: each
/// changes a field only phases 2-6 read, or TemplateConfig::seed (which
/// the campaign derives from the master seed).
std::vector<std::pair<std::string, CampaignConfig>> post_template_variants(
    const CampaignConfig& base) {
  std::vector<std::pair<std::string, CampaignConfig>> out(7, {"", base});
  out[0].first = "analysis";
  out[0].second.analysis = fault::AnalysisKind::kPfaMaxLikelihood;
  out[1].first = "ciphertext_budget";
  out[1].second.ciphertext_budget = base.ciphertext_budget + 1;
  out[2].first = "analysis_check_interval";
  out[2].second.analysis_check_interval = 64;
  out[3].first = "noise_ops";
  out[3].second.noise_ops = base.noise_ops + 5;
  out[4].first = "noise_cpu";
  out[4].second.noise_cpu = 1 - base.noise_cpu;
  out[5].first = "attacker_sleeps";
  out[5].second.attacker_sleeps = !base.attacker_sleeps;
  out[6].first = "templating.seed";
  out[6].second.templating.seed = base.templating.seed + 1;
  return out;
}

/// One-field variants of `base`'s campaign, one per template-shaping
/// aggregate of CampaignConfig (itself, TemplateConfig, VictimConfig).
std::vector<std::pair<std::string, CampaignConfig>> shaping_campaigns(
    const CampaignConfig& base) {
  std::vector<std::pair<std::string, CampaignConfig>> out(3, {"", base});
  out[0].first = "cpu";
  out[0].second.cpu = 1 - base.cpu;
  out[1].first = "templating.buffer_bytes";
  out[1].second.templating.buffer_bytes = base.templating.buffer_bytes / 2;
  out[2].first = "victim.sbox_offset";
  out[2].second.victim.sbox_offset = base.victim.sbox_offset + 64;
  return out;
}

TEST(SharingRule, RunForkAcceptsPostTemplateFieldsOnly) {
  const RunnerConfig base = scenario::builtin_scenario("quickstart")
                                .runner_config();
  kernel::System sys(base.system);
  TemplatedCampaign templated(sys, base.campaign, /*take_snapshot=*/true);
  ASSERT_TRUE(templated.template_result().template_found);
  for (const auto& [field, variant] : post_template_variants(base.campaign)) {
    EXPECT_TRUE(shares_template(base.campaign, variant)) << field;
    (void)templated.run_fork(variant);  // CHECK-fails if it diverged
  }
  for (const auto& [field, variant] : shaping_campaigns(base.campaign)) {
    EXPECT_FALSE(shares_template(base.campaign, variant)) << field;
    EXPECT_DEATH((void)templated.run_fork(variant), "template-shaping")
        << field;
  }
  CampaignConfig reseeded = base.campaign;
  ++reseeded.seed;
  EXPECT_TRUE(shares_template(base.campaign, reseeded));
  EXPECT_DEATH((void)templated.run_fork(reseeded), "template-shaping");
}

TEST(SharingRule, SweepGroupsSplitOnEveryTemplateShapingAggregate) {
  const RunnerConfig base = scenario::builtin_scenario("quickstart")
                                .runner_config();
  std::vector<RunnerConfig> configs = {base};
  std::vector<std::string> labels = {"base"};
  const auto add = [&](const std::string& label, const RunnerConfig& c) {
    configs.push_back(c);
    labels.push_back(label);
  };
  // Post-template variants, the campaign master seed included (trials
  // derive theirs from RunnerConfig::seed), all join the base's group.
  for (const auto& [field, campaign] : post_template_variants(base.campaign)) {
    RunnerConfig c = base;
    c.campaign = campaign;
    add(field, c);
  }
  RunnerConfig reseeded = base;
  ++reseeded.campaign.seed;
  add("campaign.seed", reseeded);
  const std::size_t sharing = configs.size();

  // One field of every template-shaping aggregate: each splits off.
  for (const auto& [field, campaign] : shaping_campaigns(base.campaign)) {
    RunnerConfig c = base;
    c.campaign = campaign;
    add(field, c);
  }
  const auto shaped = [&](const std::string& label, auto mutate) {
    RunnerConfig c = base;
    mutate(c);
    add(label, c);
  };
  shaped("seed", [](RunnerConfig& c) { ++c.seed; });
  shaped("trials", [](RunnerConfig& c) { ++c.trials; });
  shaped("system.zero_on_alloc",
         [](RunnerConfig& c) { c.system.zero_on_alloc ^= true; });
  shaped("system.pcp.batch", [](RunnerConfig& c) { ++c.system.pcp.batch; });
  shaped("system.dram.same_pattern_coupling",
         [](RunnerConfig& c) { c.system.dram.same_pattern_coupling /= 2; });
  shaped("system.dram.timings.row_hit_ns",
         [](RunnerConfig& c) { ++c.system.dram.timings.row_hit_ns; });
  shaped("system.dram.weak_cells.cells_per_mib",
         [](RunnerConfig& c) { c.system.dram.weak_cells.cells_per_mib *= 2; });
  shaped("system.dram.trr.threshold",
         [](RunnerConfig& c) { ++c.system.dram.trr.threshold; });
  shaped("system.dram.ecc.enabled",
         [](RunnerConfig& c) { c.system.dram.ecc.enabled ^= true; });

  std::vector<std::vector<std::size_t>> expected(1);
  for (std::size_t i = 0; i < sharing; ++i) expected[0].push_back(i);
  for (std::size_t i = sharing; i < configs.size(); ++i)
    expected.push_back({i});
  const auto groups = sweep::template_groups(configs);
  EXPECT_EQ(groups, expected);
  ASSERT_FALSE(groups.empty());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const bool with_base = std::find(groups[0].begin(), groups[0].end(),
                                     i) != groups[0].end();
    EXPECT_EQ(with_base, i < sharing) << labels[i];
  }
}

}  // namespace
}  // namespace explframe::attack
