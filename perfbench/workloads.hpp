// The benchmark's workloads: seed-generated inputs, the phase-driven trial
// that the traced runs time layer by layer, and one entry point per
// workload family.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "common.hpp"
#include "scenario/registry.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

/// The generated scenarios of a trial workload, registered in a
/// benchmark-owned registry, and their lowered runner configs.
struct TrialSet {
  explframe::scenario::Registry registry;
  std::vector<explframe::attack::RunnerConfig> configs;

  /// Operation `op` of the closed loop: scenario op % n, trial op / n.
  std::pair<const explframe::attack::RunnerConfig*, std::uint32_t> trial(
      std::uint64_t op) const;
};

/// present-pfa: one PRESENT-80 single-flip scenario. aes-defences: AES-128
/// single-flip under none/trr/ecc/trr+ecc x realistic/vulnerable cells.
/// Master seeds derive from `seed`; throws on an unknown workload.
TrialSet make_trial_set(const std::string& workload, std::uint64_t seed);

/// The generated sweep jobs of the daemon workload and the registries the
/// service is started with.
struct SweepJobs {
  explframe::scenario::Registry scenarios;
  explframe::sweep::Registry sweeps;
};

/// `count` AES sweeps over the post-template axes noise_ops x
/// attacker_sleeps with a shared seed, so the sweep runner templates once
/// per trial and forks every point from the snapshot.
SweepJobs make_sweep_jobs(std::uint64_t seed, std::size_t count);

/// Phase-driven CampaignRunner::run_trial_group: builds the trial's
/// machine, templates once, then runs phases 2-6 of each variant through
/// the public entry points of TemplatedCampaign's parts, one span per
/// phase in `trace`. Reports equal run_trial_group's (run_trial's for one
/// variant). When `counts` is non-null the simulated-work counters of the
/// machine are added to it.
std::vector<explframe::attack::CampaignReport> traced_trial_group(
    const explframe::attack::RunnerConfig& base,
    const std::vector<explframe::attack::CampaignConfig>& variants,
    std::uint32_t trial, Trace& trace, Trace* counts);

/// Adds one window trial's outcome counts (templated, steered, ...) to
/// `counts`.
void count_trial(const explframe::sweep::TrialRow& row, Trace& counts);

/// Copies the deterministic counts into the result's count lines: trial
/// outcomes always, the machine counters of phase-driven trials when
/// `traced`.
void keep_counts(const Trace& counts, bool traced, RunResult& result);

/// Writes the per-layer metrics derived from a traced run's spans and
/// window counts: every span as mean self ms per op, every count as is.
void emit_layers(const Trace& spans, std::uint64_t ops, const Trace& counts,
                 RunResult& result);

RunResult run_trials(const Options& options);
RunResult run_daemon(const Options& options);

}  // namespace perfbench
