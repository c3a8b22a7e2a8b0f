// attack::CampaignRunner — executes N independent campaign trials across a
// worker-thread pool and aggregates the per-phase outcome statistics.
//
// Each trial gets its own kernel::System (simulated machine) and its own
// deterministically derived (system seed, campaign seed) pair, so results
// are bit-identical for a fixed master seed regardless of thread count or
// scheduling — parallelism changes only the wall clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign.hpp"
#include "kernel/system.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace explframe::attack {

/// A sweep: N trials of one campaign configuration across a worker pool.
struct RunnerConfig {
  /// Independent simulated machines to attack.
  std::uint32_t trials = 8;
  /// Worker threads (each owns one System at a time). 0 = 1.
  std::uint32_t threads = 2;
  /// Per-trial machine; its seed is overridden by the derived trial seed.
  kernel::SystemConfig system;
  /// Per-trial campaign; its seed is overridden by the derived trial seed.
  CampaignConfig campaign;
  /// Master seed all per-trial seeds derive from.
  std::uint64_t seed = 1;
};

/// Aggregated outcome of a campaign sweep.
struct CampaignAggregate {
  std::uint32_t trials = 0;
  std::uint32_t templated = 0;
  std::uint32_t steered = 0;
  std::uint32_t fault_injected = 0;
  std::uint32_t key_recovered = 0;
  std::uint32_t succeeded = 0;

  Samples rows_scanned;      ///< All trials.
  Samples ciphertexts_used;  ///< Successful trials only.
  Samples sim_seconds;       ///< Simulated attack time, all trials.
  /// Simulated templating time per trial — the slice of sim_seconds the
  /// snapshot/fork engine amortizes away when trials share a base.
  Samples template_sim_seconds;
  /// Host seconds spent templating, summed over trials as reported (trials
  /// forked from one base repeat the shared run's value). Diagnostic only;
  /// never part of byte-stable emitters.
  double template_wall_seconds = 0.0;
  /// failure_stage() -> count, including "none" for successes.
  std::map<std::string, std::uint32_t> failure_stages;

  /// Per-trial reports in trial order (independent of worker scheduling).
  std::vector<CampaignReport> reports;

  double wall_seconds = 0.0;  ///< Host wall-clock time for the whole sweep.
  double trials_per_second() const noexcept {
    return wall_seconds > 0.0 ? trials / wall_seconds : 0.0;
  }
  double success_rate() const noexcept {
    return trials > 0 ? static_cast<double>(succeeded) / trials : 0.0;
  }

  /// Per-phase success table (the console summary of `explsim run`).
  Table phase_table() const;
};

/// Executes a RunnerConfig; see the file comment for the determinism
/// guarantee (results are independent of thread count and scheduling).
class CampaignRunner {
 public:
  explicit CampaignRunner(const RunnerConfig& config) : config_(config) {}

  CampaignAggregate run();

  /// The (system seed, campaign seed) pair trial `trial` runs with —
  /// exposed so a single trial can be reproduced outside the runner.
  static std::pair<std::uint64_t, std::uint64_t> trial_seeds(
      std::uint64_t master_seed, std::uint32_t trial) noexcept;

  /// Run exactly one trial (the runner's unit of work) synchronously: a
  /// one-variant run_trial_group.
  static CampaignReport run_trial(const RunnerConfig& config,
                                  std::uint32_t trial);

  /// Run one trial of several campaign variants that agree on every
  /// template-shaping field (attack::shares_template; CHECKed) over ONE
  /// machine: template once, then fork each variant from a snapshot of
  /// the post-templating state (taken only when there are several).
  /// Element i corresponds to variants[i] and is byte-identical to
  /// run_trial with that campaign config — this is the sweep amortization
  /// (SweepRunner groups grid points by shares_template).
  static std::vector<CampaignReport> run_trial_group(
      const RunnerConfig& base, const std::vector<CampaignConfig>& variants,
      std::uint32_t trial);

  const RunnerConfig& config() const noexcept { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace explframe::attack
