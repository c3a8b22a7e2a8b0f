// sweep::report — byte-stable emitters and golden-drift detection.
#include "sweep/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

SweepSpec tiny_spec() {
  const auto spec = SweepSpec::from_sweep(
      "name = tiny-grid\n"
      "title = Tiny test grid\n"
      "base = quickstart\n"
      "base.trials = 2\n"
      "axis.defence = none,trr\n"
      "axis.max_rows = 24,48\n");
  EXPLFRAME_CHECK(spec.has_value());
  return *spec;
}

SweepResult run_tiny(std::uint32_t threads) {
  SweepRunOptions options;
  options.threads = threads;
  const auto result = run_sweep(tiny_spec(), scenarios(), options);
  EXPLFRAME_CHECK(result.has_value());
  return *result;
}

TEST(SweepReport, EmittersAreByteStableAcrossThreadCounts) {
  const SweepResult serial = run_tiny(1);
  const SweepResult wide = run_tiny(8);
  EXPECT_EQ(sweep_csv(serial), sweep_csv(wide));
  EXPECT_EQ(sweep_markdown(serial), sweep_markdown(wide));
  EXPECT_EQ(sweeps_index({serial}), sweeps_index({wide}));
}

TEST(SweepReport, CsvIsLongFormWithAxisColumns) {
  const SweepResult result = run_tiny(2);
  const std::string csv = sweep_csv(result);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "point,defence,max_rows,trial,template_found,rows_scanned,"
            "flips_found,steered,fault_injected,fault_as_predicted,"
            "key_recovered,ciphertexts_used,residual_search,success,"
            "failure_stage,sim_seconds");
  // One header + 4 points x 2 trials.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 9);
  EXPECT_NE(csv.find("\n0,none,24,0,"), std::string::npos);
  EXPECT_NE(csv.find("\n3,trr,48,1,"), std::string::npos);
}

TEST(SweepReport, MarkdownContainsGridMarginalsAndPivot) {
  const SweepResult result = run_tiny(2);
  const std::string md = sweep_markdown(result);
  EXPECT_NE(md.find("## Configuration"), std::string::npos);
  EXPECT_NE(md.find("axis.defence = none,trr"), std::string::npos);
  EXPECT_NE(md.find("## Grid"), std::string::npos);
  EXPECT_NE(md.find("## Marginal: `defence`"), std::string::npos);
  EXPECT_NE(md.find("## Marginal: `max_rows`"), std::string::npos);
  EXPECT_NE(md.find("## Success pivot: `defence` x `max_rows`"),
            std::string::npos);
  // Wall-clock values never appear in generated reports.
  EXPECT_EQ(md.find("wall"), std::string::npos);
}

// The `explsim sweep all --check` contract: a matching directory is clean;
// any drifted byte, missing file or orphan is one reported issue.
TEST(SweepReport, CheckDetectsDriftMissingAndOrphans) {
  const SweepResult result = run_tiny(2);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "sweep-goldens")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto files = sweep_files({result}, dir);
  ASSERT_EQ(files.size(), 3u);  // md + csv + README.md
  for (const auto& [path, content] : files) {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  EXPECT_TRUE(check_generated_files(files, dir).empty());

  // One flipped byte -> DRIFT.
  {
    std::ofstream out(files[0].first, std::ios::binary | std::ios::app);
    out << "x";
  }
  auto issues = check_generated_files(files, dir);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("DRIFT"), std::string::npos);
  EXPECT_NE(issues[0].find(files[0].first), std::string::npos);

  // Deleted golden -> MISSING; stray report -> ORPHAN.
  std::filesystem::remove(files[0].first);
  {
    std::ofstream out(dir + "/stale-sweep.md", std::ios::binary);
    out << "old\n";
  }
  issues = check_generated_files(files, dir);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_NE(issues[0].find("MISSING"), std::string::npos);
  EXPECT_NE(issues[1].find("ORPHAN"), std::string::npos);
  EXPECT_NE(issues[1].find("stale-sweep.md"), std::string::npos);

  std::filesystem::remove_all(dir);
}

// Resume and fresh runs feed the emitters the same records, so the files
// (the acceptance criterion's CSV/markdown) are byte-identical.
TEST(SweepReport, ResumedRunEmitsIdenticalBytes) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "report-resume.ckpt")
          .string();
  std::filesystem::remove(path);
  // The complete checkpoint a run killed after its last point leaves.
  {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=" << spec.name
        << " spec_hash=" << hex16(spec.spec_hash(scenarios())) << "\n";
    for (const PointRecord& record : fresh->records)
      out << record.serialize() << "\n";
  }

  // Resume against the complete checkpoint: zero points execute, and the
  // emitted bytes match the fresh run exactly.
  SweepRunOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  std::string error;
  const auto resumed = run_sweep(spec, scenarios(), second, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->resumed_points, resumed->records.size());
  EXPECT_EQ(sweep_csv(*resumed), sweep_csv(*fresh));
  EXPECT_EQ(sweep_markdown(*resumed), sweep_markdown(*fresh));
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace explframe::sweep
