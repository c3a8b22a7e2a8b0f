// tests/race/ — SweepRunner under the race-detector leg.
//
// The sweep engine's guarantee is one level up from CampaignRunner's: the
// emitted grid records (and therefore the CSV/markdown goldens) must be
// byte-identical at any worker count, with template-sharing groups forking
// trials off shared snapshots. These tests drive that machinery at the
// host's full thread count so the TSan CI leg watches the work-stealing
// queue, the per-point record table, checkpoint appends and the progress
// callback lock under real contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "support/check.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

std::uint32_t hardware_threads() {
  return std::max(2u, std::thread::hardware_concurrency());
}

/// A shared-seed grid over post-template axes: every point of a column
/// shares a template (attack::shares_template), seed and trial count, so
/// the runner actually forms multi-point groups and forks them from one
/// snapshot per trial.
SweepSpec grouped_spec() {
  const auto spec = SweepSpec::from_sweep(
      "name = race-grid\n"
      "title = TSan stress grid\n"
      "base = quickstart\n"
      "base.trials = 2\n"
      "seed_mode = shared\n"
      "axis.ciphertext_budget = 1500,3000,6000,12000\n"
      "axis.defence = none,trr\n");
  EXPLFRAME_CHECK(spec.has_value());
  return *spec;
}

/// The byte-stable projection of a finished sweep (wall clock excluded).
std::string deterministic_digest(const SweepResult& result) {
  return sweep_csv(result) + "\n" + sweep_markdown(result);
}

TEST(SweepRunnerRace, RecordsAndReportBytesInvariantAcrossThreadCounts) {
  const SweepSpec spec = grouped_spec();
  SweepRunOptions serial;
  serial.threads = 1;
  const auto reference = run_sweep(spec, scenarios(), serial);
  ASSERT_TRUE(reference.has_value());
  const std::string expected = deterministic_digest(*reference);

  for (const std::uint32_t threads : {4u, hardware_threads()}) {
    SweepRunOptions wide;
    wide.threads = threads;
    const auto result = run_sweep(spec, scenarios(), wide);
    ASSERT_TRUE(result.has_value()) << "threads " << threads;
    EXPECT_EQ(result->records, reference->records)
        << "threads " << threads << " changed the record table";
    EXPECT_EQ(deterministic_digest(*result), expected)
        << "threads " << threads << " changed emitted bytes";
  }
}

TEST(SweepRunnerRace, GroupedRecordsMatchStandalonePointsAtFullWidth) {
  const SweepSpec spec = grouped_spec();
  SweepRunOptions options;
  options.threads = hardware_threads();
  const auto result = run_sweep(spec, scenarios(), options);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->complete());
  // Every record must equal what its point reports when run on its own.
  for (const PointRecord& record : result->records) {
    const SweepPoint& point = result->points[record.index];
    std::vector<TrialRow> standalone;
    for (const attack::CampaignReport& report :
         scenario::run_scenario(point.scenario, 1).aggregate.reports)
      standalone.push_back(TrialRow::from_report(report));
    EXPECT_EQ(record.trials, standalone) << point.id;
  }
}

TEST(SweepRunnerRace, ConcurrentCheckpointedSweepsStayIsolated) {
  // Two checkpointed sweeps of the same spec in flight at once, each with
  // its own checkpoint file — the explsimd shape. Appends/fsyncs must not
  // bleed across runs and both must emit the reference bytes.
  const SweepSpec spec = grouped_spec();
  const auto reference = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(reference.has_value());

  constexpr int kRuns = 2;
  std::vector<std::optional<SweepResult>> results(kRuns);
  {
    std::vector<std::thread> pool;
    for (int i = 0; i < kRuns; ++i)
      pool.emplace_back([&spec, &results, i] {
        SweepRunOptions options;
        options.threads = 4;
        options.checkpoint_path =
            (std::filesystem::path(::testing::TempDir()) /
             ("race_ckpt_" + std::to_string(i) + ".txt"))
                .string();
        results[i] = run_sweep(spec, scenarios(), options);
      });
    for (auto& t : pool) t.join();
  }
  for (int i = 0; i < kRuns; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "run " << i;
    EXPECT_EQ(results[i]->records, reference->records) << "run " << i;
  }
}

}  // namespace
}  // namespace explframe::sweep
