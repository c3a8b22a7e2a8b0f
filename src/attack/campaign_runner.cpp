#include "attack/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace explframe::attack {

Table CampaignAggregate::phase_table() const {
  Table t({"phase", "success", "rate"});
  const auto pct = [&](std::uint32_t n) { return rate_cell_wide(n, trials); };
  t.row("1 template (usable flip found)", templated, pct(templated));
  t.row("3 steer (victim got planted frame)", steered, pct(steered));
  t.row("4 fault injected into table", fault_injected, pct(fault_injected));
  t.row("6 key recovered", key_recovered, pct(key_recovered));
  t.row("overall success", succeeded, pct(succeeded));
  return t;
}

std::pair<std::uint64_t, std::uint64_t> CampaignRunner::trial_seeds(
    std::uint64_t master_seed, std::uint32_t trial) noexcept {
  // Hash (master, trial) once, then give each consumer its own salted
  // stream. Two draws from ONE incremented SplitMix64 state would overlap
  // across trials: the per-trial jump and the generator's own step are the
  // same golden-ratio constant, making trial t's campaign seed identical
  // to trial t+1's system seed.
  SplitMix64 base(master_seed + 0x9e3779b97f4a7c15ULL * (trial + 1ULL));
  const std::uint64_t h = base.next();
  const std::uint64_t system_seed = SplitMix64(h ^ 0x243f6a8885a308d3ULL).next();
  const std::uint64_t campaign_seed =
      SplitMix64(h ^ 0x452821e638d01377ULL).next();
  return {system_seed, campaign_seed};
}

CampaignReport CampaignRunner::run_trial(const RunnerConfig& config,
                                         std::uint32_t trial) {
  return run_trial_group(config, {config.campaign}, trial).front();
}

std::vector<CampaignReport> CampaignRunner::run_trial_group(
    const RunnerConfig& base, const std::vector<CampaignConfig>& variants,
    std::uint32_t trial) {
  EXPLFRAME_CHECK(!variants.empty());
  const auto [system_seed, campaign_seed] = trial_seeds(base.seed, trial);
  kernel::SystemConfig sys_cfg = base.system;
  sys_cfg.seed = system_seed;
  kernel::System sys(sys_cfg);
  CampaignConfig first = variants.front();
  first.seed = campaign_seed;
  // Template once; with more than one variant, every variant forks from
  // the shared snapshot (run_fork CHECKs that each variant shares the
  // base's template). A lone variant has nothing to rewind.
  TemplatedCampaign templated(sys, first,
                              /*take_snapshot=*/variants.size() > 1);
  std::vector<CampaignReport> reports;
  reports.reserve(variants.size());
  for (const CampaignConfig& variant : variants) {
    CampaignConfig cfg = variant;
    cfg.seed = campaign_seed;
    reports.push_back(templated.run_fork(cfg));
  }
  return reports;
}

CampaignAggregate CampaignRunner::run() {
  EXPLFRAME_CHECK(config_.trials > 0);
  // RunnerConfig promises threads == 0 behaves like 1, and there is never a
  // point in spinning up more workers than there are trials.
  const std::uint32_t workers =
      std::clamp<std::uint32_t>(config_.threads, 1u, config_.trials);

  // determinism: allow(steady-clock) aggregate wall_seconds diagnostic, never emitted
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<CampaignReport> reports(config_.trials);
  std::atomic<std::uint32_t> next{0};
  auto worker = [&] {
    for (std::uint32_t trial = next.fetch_add(1); trial < config_.trials;
         trial = next.fetch_add(1)) {
      reports[trial] = run_trial(config_, trial);
    }
  };
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  const std::chrono::duration<double> wall =
      // determinism: allow(steady-clock) aggregate wall_seconds diagnostic, never emitted
      std::chrono::steady_clock::now() - wall_start;

  // Aggregate serially, in trial order, so the aggregate is independent of
  // which worker ran which trial.
  CampaignAggregate agg;
  agg.trials = config_.trials;
  agg.wall_seconds = wall.count();
  for (CampaignReport& r : reports) {
    agg.templated += r.template_found;
    agg.steered += r.steered;
    agg.fault_injected += r.fault_injected;
    agg.key_recovered += r.key_recovered;
    agg.succeeded += r.success;
    agg.rows_scanned.add(static_cast<double>(r.rows_scanned));
    if (r.success)
      agg.ciphertexts_used.add(static_cast<double>(r.ciphertexts_used));
    agg.sim_seconds.add(static_cast<double>(r.total_time) / kSecond);
    agg.template_sim_seconds.add(static_cast<double>(r.template_time) /
                                 kSecond);
    agg.template_wall_seconds += r.template_wall_seconds;
    ++agg.failure_stages[r.failure_stage()];
    agg.reports.push_back(std::move(r));
  }
  return agg;
}

}  // namespace explframe::attack
