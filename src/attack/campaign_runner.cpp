#include "attack/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace explframe::attack {

TrialRow TrialRow::from_report(const CampaignReport& report) {
  return {.template_found = report.template_found,
          .rows_scanned = report.rows_scanned,
          .flips_found = report.flips_found,
          .steered = report.steered,
          .fault_injected = report.fault_injected,
          .fault_as_predicted = report.fault_as_predicted,
          .key_recovered = report.key_recovered,
          .ciphertexts_used = report.ciphertexts_used,
          .residual_search = report.residual_search,
          .success = report.success,
          .failure_stage = report.failure_stage(),
          .total_time = report.total_time};
}

void TrialRow::append_csv_headers(std::vector<std::string>& headers) {
  std::apply(
      [&](const auto&... column) { (headers.emplace_back(column.name), ...); },
      kTrialColumns);
}

void TrialRow::append_csv_cells(std::vector<std::string>& cells) const {
  for_each_column(*this, [&](const auto& column, const auto& value) {
    if constexpr (std::decay_t<decltype(column)>::seconds)
      cells.push_back(Table::to_cell(static_cast<double>(value) / kSecond));
    else
      cells.push_back(Table::to_cell(value));
  });
}

void TrialTally::add(const TrialRow& row) {
  ++trials;
  templated += row.template_found;
  steered += row.steered;
  fault_injected += row.fault_injected;
  key_recovered += row.key_recovered;
  succeeded += row.success;
  rows_scanned.add(static_cast<double>(row.rows_scanned));
  if (row.success) ciphertexts_used.add(row.ciphertexts_used);
  sim_seconds.add(static_cast<double>(row.total_time) / kSecond);
  ++failure_stages[row.failure_stage];
}

TrialTally TrialTally::of(const std::vector<TrialRow>& rows) {
  TrialTally tally;
  for (const TrialRow& row : rows) tally.add(row);
  return tally;
}

Table TrialTally::phase_table() const {
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
  agg.wall_seconds = wall.count();
  for (CampaignReport& r : reports) {
    agg.add(TrialRow::from_report(r));
    agg.template_sim_seconds.add(static_cast<double>(r.template_time) /
                                 kSecond);
    agg.template_wall_seconds += r.template_wall_seconds;
    agg.reports.push_back(std::move(r));
  }
  return agg;
}

}  // namespace explframe::attack
