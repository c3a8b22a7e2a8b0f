// PERF — snapshot/fork amortized templating.
//
// The whole point of the CoW snapshot engine: campaign variants that agree
// on every template-shaping field (attack::shares_template) should pay for
// templating ONCE and fork the post-template machine state per variant,
// instead of re-templating from scratch. This bench builds the
// representative workload — one base scenario and a family of variants
// differing only in a post-template knob (ciphertext_budget, the axis a
// budget-curve sweep varies) — and runs every (variant, trial) both ways:
//
//   fresh  — CampaignRunner::run_trial per variant: templating re-runs for
//            every point (what a sweep cost before the snapshot engine);
//   forked — CampaignRunner::run_trial_group: one templating pass per
//            trial, one snapshot fork per variant (what SweepRunner's
//            template-sharing groups do now).
//
// Before timing, both paths' reports are compared field by field — the
// speedup only counts if the forked results are exactly the fresh ones.
// Writes BENCH_snapshot.json (override with --json=PATH) and exits
// non-zero below the end-to-end speedup bar (default 5x, --bar=X) or on
// any report mismatch.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "harness.hpp"
#include "scenario/registry.hpp"
#include "support/table.hpp"

using namespace explframe;

namespace {

constexpr std::uint32_t kTrials = 2;

std::string speedup_label(double speedup) {
  std::ostringstream out;
  out.precision(2);
  out << std::fixed << speedup << "x";
  return out.str();
}

/// The variant family: the quickstart machine with a ciphertext-budget
/// curve (a post-template knob, so every variant shares one template).
std::vector<attack::CampaignConfig> make_variants(
    const attack::RunnerConfig& base) {
  std::vector<attack::CampaignConfig> variants;
  for (std::uint32_t budget = 500; budget <= 8000; budget += 500) {
    attack::CampaignConfig cfg = base.campaign;
    cfg.ciphertext_budget = budget;
    variants.push_back(cfg);
  }
  return variants;
}

/// One trial of every variant through the fresh path (templating re-runs
/// per variant).
std::vector<attack::CampaignReport> run_fresh(
    const attack::RunnerConfig& base,
    const std::vector<attack::CampaignConfig>& variants,
    std::uint32_t trial) {
  std::vector<attack::CampaignReport> reports;
  reports.reserve(variants.size());
  for (const attack::CampaignConfig& variant : variants) {
    attack::RunnerConfig config = base;
    config.campaign = variant;
    reports.push_back(attack::CampaignRunner::run_trial(config, trial));
  }
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags_or_exit(
      argc, argv, {"BENCH_snapshot.json", {{"bar", 5.0}}});
  const double bar = flags.bars.at("bar");

  print_banner(std::cout, "PERF: snapshot/fork amortized templating");

  attack::RunnerConfig base =
      scenario::builtin_scenario("quickstart").runner_config();
  base.threads = 1;
  base.trials = kTrials;
  const std::vector<attack::CampaignConfig> variants = make_variants(base);

  // Correctness gate first: the forked reports must BE the fresh reports.
  bench::Verdict verdict;
  bool identical = true;
  for (std::uint32_t trial = 0; trial < kTrials && identical; ++trial) {
    const auto fresh = run_fresh(base, variants, trial);
    const auto forked =
        attack::CampaignRunner::run_trial_group(base, variants, trial);
    for (std::size_t i = 0; i < variants.size() && identical; ++i) {
      identical = fresh[i].same_outcome(forked[i]);
      verdict.require(identical, "forked report diverges from fresh (trial ",
                      trial, ", variant ", i, ")");
    }
  }

  const auto [fresh, forked] = bench::best_of(
      [&] {
        for (std::uint32_t trial = 0; trial < kTrials; ++trial)
          (void)run_fresh(base, variants, trial);
      },
      [&] {
        for (std::uint32_t trial = 0; trial < kTrials; ++trial)
          (void)attack::CampaignRunner::run_trial_group(base, variants, trial);
      });
  const double speedup = forked > 0.0 ? fresh / forked : 0.0;

  Table t({"path", "seconds", "speedup"});
  t.row("fresh (re-template per point)", fresh, "-");
  t.row("forked (snapshot per trial)", forked, speedup_label(speedup));
  t.print(std::cout);
  std::cout << variants.size() << " budget-curve points x " << kTrials
            << " trials, single-threaded; reports "
            << (identical ? "byte-identical" : "DIVERGED") << "\n";

  verdict.require(speedup >= bar, "end-to-end speedup ", speedup, "x below ",
                  bar, "x");
  bench::Json json = bench::bench_json("snapshot");
  json.add("points", variants.size())
      .add("trials", kTrials)
      .add("base_seconds", fresh)
      .add("forked_seconds", forked)
      .add("speedup", speedup)
      .add("bar", bar)
      .add("pass", verdict.pass());
  return bench::finish(json, flags.json, verdict);
}
