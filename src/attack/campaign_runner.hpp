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
#include <tuple>
#include <utility>
#include <vector>

#include "attack/campaign.hpp"
#include "kernel/system.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

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

/// One trial's published outcome: template -> steer -> fault -> key, with
/// its cost in rows and ciphertexts. The unit of every per-trial CSV and of
/// sweep checkpoints; everything here round-trips losslessly as text, so a
/// resumed sweep point emits the same bytes as a fresh one.
struct TrialRow {
  bool template_found = false;
  std::uint64_t rows_scanned = 0;
  std::uint64_t flips_found = 0;
  bool steered = false;
  bool fault_injected = false;
  bool fault_as_predicted = false;
  bool key_recovered = false;
  std::uint32_t ciphertexts_used = 0;
  std::uint32_t residual_search = 0;
  bool success = false;
  std::string failure_stage;  ///< CampaignReport::failure_stage() string.
  SimTime total_time = 0;     ///< Simulated nanoseconds (exact integer).

  /// Project a campaign report onto the published columns.
  static TrialRow from_report(const CampaignReport& report);

  /// Append the CSV header names: the kTrialColumns names, in order.
  static void append_csv_headers(std::vector<std::string>& headers);
  /// Append this row's CSV cells: bools as yes/no, time in seconds.
  void append_csv_cells(std::vector<std::string>& cells) const;

  bool operator==(const TrialRow&) const = default;
};

template <typename T, bool kSeconds = false>
/// One published column: its name and the TrialRow member it holds.
/// `kSeconds` marks the simulated-time column, published in seconds.
struct TrialColumn {
  static constexpr bool seconds = kSeconds;
  const char* name;
  T TrialRow::*member;
};

/// The published columns in CSV and checkpoint order — the one list the
/// checkpoint, both CSVs and tools/check_handbook.sh read.
inline constexpr std::tuple kTrialColumns{
    TrialColumn<bool>{"template_found", &TrialRow::template_found},
    TrialColumn<std::uint64_t>{"rows_scanned", &TrialRow::rows_scanned},
    TrialColumn<std::uint64_t>{"flips_found", &TrialRow::flips_found},
    TrialColumn<bool>{"steered", &TrialRow::steered},
    TrialColumn<bool>{"fault_injected", &TrialRow::fault_injected},
    TrialColumn<bool>{"fault_as_predicted", &TrialRow::fault_as_predicted},
    TrialColumn<bool>{"key_recovered", &TrialRow::key_recovered},
    TrialColumn<std::uint32_t>{"ciphertexts_used", &TrialRow::ciphertexts_used},
    TrialColumn<std::uint32_t>{"residual_search", &TrialRow::residual_search},
    TrialColumn<bool>{"success", &TrialRow::success},
    TrialColumn<std::string>{"failure_stage", &TrialRow::failure_stage},
    TrialColumn<SimTime, true>{"sim_seconds", &TrialRow::total_time}};

/// Call visit(column, row.*column.member) for every column, in order.
/// `Row` may be const; each format renders a value by its member type.
template <typename Row, typename Visit>
void for_each_column(Row& row, Visit&& visit) {
  std::apply(
      [&](const auto&... column) { (visit(column, row.*column.member), ...); },
      kTrialColumns);
}

/// The counts and distributions every report publishes for a set of
/// trials. Fed in trial order: the Samples sums depend on it.
struct TrialTally {
  std::uint32_t trials = 0;
  std::uint32_t templated = 0;
  std::uint32_t steered = 0;
  std::uint32_t fault_injected = 0;
  std::uint32_t key_recovered = 0;
  std::uint32_t succeeded = 0;

  Samples rows_scanned;      ///< All trials.
  Samples ciphertexts_used;  ///< Successful trials only.
  Samples sim_seconds;       ///< Simulated attack time, all trials.
  /// failure_stage -> count, including "none" for successes.
  std::map<std::string, std::uint32_t> failure_stages;

  void add(const TrialRow& row);
  /// The tally of `rows`, added in order.
  static TrialTally of(const std::vector<TrialRow>& rows);

  double success_rate() const noexcept {
    return trials > 0 ? static_cast<double>(succeeded) / trials : 0.0;
  }

  /// Per-phase success table (the console summary of `explsim run`).
  Table phase_table() const;
};

/// Aggregated outcome of a campaign sweep: the tally of its trials plus the
/// host-time diagnostics `explsim run` prints.
struct CampaignAggregate : TrialTally {
  /// Simulated templating time per trial — the slice of sim_seconds the
  /// snapshot/fork engine amortizes away when trials share a base.
  Samples template_sim_seconds;
  /// Host seconds spent templating, summed over trials as reported (trials
  /// forked from one base repeat the shared run's value). Diagnostic only;
  /// never part of byte-stable emitters.
  double template_wall_seconds = 0.0;

  /// Per-trial reports in trial order (independent of worker scheduling).
  std::vector<CampaignReport> reports;

  double wall_seconds = 0.0;  ///< Host wall-clock time for the whole sweep.
  double trials_per_second() const noexcept {
    return wall_seconds > 0.0 ? trials / wall_seconds : 0.0;
  }
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
