// sweep::SweepRunner — execution, checkpoint round-trip and resume-equals-
// fresh guarantees.
#include "sweep/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../io/faulty_fs.hpp"
#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// Small but real grid: 2x2 points x 2 trials of the quickstart attack.
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

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// The checkpoint header line the runner writes for `spec`.
std::string header_line(const SweepSpec& spec) {
  return "explsim-sweep-checkpoint v1 sweep=" + spec.name +
         " spec_hash=" + hex16(spec.spec_hash(scenarios()));
}

TEST(SweepRunner, RunsEveryPointInIndexOrder) {
  const SweepSpec spec = tiny_spec();
  std::string error;
  const auto result = run_sweep(spec, scenarios(), {}, &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 4u);
  for (std::size_t i = 0; i < result->records.size(); ++i) {
    EXPECT_EQ(result->records[i].index, i);
    EXPECT_EQ(result->records[i].id, result->points[i].id);
    EXPECT_EQ(result->records[i].trials.size(), 2u);
  }
  EXPECT_EQ(result->resumed_points, 0u);
}

TEST(SweepRunner, ResultsAreIndependentOfThreadCount) {
  const SweepSpec spec = tiny_spec();
  SweepRunOptions serial;
  serial.threads = 1;
  SweepRunOptions wide;
  wide.threads = 8;
  const auto a = run_sweep(spec, scenarios(), serial);
  const auto b = run_sweep(spec, scenarios(), wide);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->records, b->records);
}

TEST(PointRecord, SerializesAndParsesLosslessly) {
  const auto result = run_sweep(tiny_spec(), scenarios(), {});
  ASSERT_TRUE(result.has_value());
  for (const PointRecord& record : result->records) {
    std::string error;
    const auto reparsed = PointRecord::parse(record.serialize(), &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, record);
  }
}

TEST(PointRecord, ParseRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(PointRecord::parse("pt 0 id 1,2", &error).has_value());
  EXPECT_FALSE(PointRecord::parse("point x id 1,2", &error).has_value());
  EXPECT_FALSE(PointRecord::parse("point 0 id", &error).has_value());
  // Wrong trial field count / non-numeric fields.
  EXPECT_FALSE(PointRecord::parse("point 0 id 1,2,3", &error).has_value());
  EXPECT_FALSE(
      PointRecord::parse("point 0 id 1,2,3,4,5,6,7,8,9,10,stage,x", &error)
          .has_value());
  // Per-kind field rules: bools are 0/1, the two u32 counts reject values
  // past 2^32 - 1, and failure_stage is never empty.
  for (const char* line :
       {"point 0 id 2,321,4,1,1,0,1,1700,0,1,none,9",
        "point 0 id 1,321,4,1,1,0,1,4294967296,0,1,none,9",
        "point 0 id 1,321,4,1,1,0,1,1700,4294967296,1,none,9",
        "point 0 id 1,321,4,1,1,0,1,1700,0,1,,9"})
    EXPECT_FALSE(PointRecord::parse(line, &error).has_value()) << line;
  // The limits themselves parse.
  EXPECT_TRUE(
      PointRecord::parse("point 0 id 0,0,0,0,0,0,0,4294967295,4294967295,0,x,0")
          .has_value());
}

// The on-disk format: a checkpoint line written by an earlier build must
// parse to the same rows and re-serialize to the same bytes, or an old
// checkpoint could not resume.
TEST(PointRecord, ParsesAndReproducesPinnedCheckpointLine) {
  const std::string line =
      "point 7 defence=trr,weak_cells=dense "
      "1,321,4,1,1,0,1,1700,0,1,none,123456789;"
      "1,321,4,1,1,0,1,1700,0,1,none,123456789";
  std::string error;
  const auto record = PointRecord::parse(line, &error);
  ASSERT_TRUE(record.has_value()) << error;
  TrialRow row;
  row.template_found = true;
  row.rows_scanned = 321;
  row.flips_found = 4;
  row.steered = true;
  row.fault_injected = true;
  row.key_recovered = true;
  row.ciphertexts_used = 1700;
  row.success = true;
  row.failure_stage = "none";
  row.total_time = 123456789;
  EXPECT_EQ(record->index, 7u);
  EXPECT_EQ(record->id, "defence=trr,weak_cells=dense");
  EXPECT_EQ(record->trials, (std::vector<TrialRow>{row, row}));
  EXPECT_EQ(record->serialize(), line);
}

TEST(SweepRunner, WritesAndRemovesCheckpoint) {
  const std::string path = temp_path("complete.ckpt");
  std::filesystem::remove(path);
  SweepRunOptions options;
  options.checkpoint_path = path;
  const auto result = run_sweep(tiny_spec(), scenarios(), options);
  ASSERT_TRUE(result.has_value());
  // A completed sweep has nothing to resume: the checkpoint is gone.
  EXPECT_FALSE(std::filesystem::exists(path));
}

// The acceptance-criteria invariant: a run resumed from a partial
// checkpoint produces records equal to an uninterrupted run, point for
// point and trial for trial — which is what makes the emitted CSV and
// markdown byte-identical.
TEST(SweepRunner, ResumeEqualsFreshPerPoint) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path = temp_path("partial.ckpt");
  std::filesystem::remove(path);

  // Simulate an interrupted run: only points 0 and 2 made it to the log,
  // and the process died while writing point 3's line.
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << fresh->records[0].serialize() << "\n";
    out << fresh->records[2].serialize() << "\n";
    // A torn final line (the mid-write crash): silently dropped.
    out << "point 3 defence=trr,max_rows=48 1,2";
  }

  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::size_t executed = 0;
  std::size_t resumed = 0;
  options.on_point = [&](const SweepPoint&, const PointRecord&,
                         bool was_resumed) {
    (was_resumed ? resumed : executed) += 1;
  };
  std::string error;
  const auto again = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(resumed, 2u);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(again->resumed_points, 2u);
  EXPECT_EQ(again->records, fresh->records);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// A resume that is itself interrupted must not corrupt the log: the first
// resume truncates the torn fragment before appending, so every line a
// later resume reads is well-formed. (Regression: "ab" used to append the
// next record directly onto the torn fragment, merging two lines and
// making the checkpoint permanently unloadable.)
TEST(SweepRunner, ResumeAfterTornLineLeavesLoadableCheckpoint) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());

  const std::string path = temp_path("torn-twice.ckpt");
  std::filesystem::remove(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << fresh->records[0].serialize() << "\n";
    out << "point 1 defence=trr,max_";  // Torn mid-write, no newline.
  }

  // Fail the cleanup removal so the completed log stays to audit.
  io::FaultyFs keep(io::real());
  keep.fail_from(io::Op::kRemove, 0,
                 io::Status::permanent_error("kept for the audit"));
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  options.fs = &keep;
  std::string error;
  const auto resumed = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->resumed_points, 1u);
  EXPECT_EQ(resumed->records, fresh->records);

  // The completed log must parse cleanly — all 4 points, no merged lines.
  const auto reloaded =
      load_checkpoint(path, spec.name, spec.spec_hash(scenarios()), &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->size(), 4u);
  std::filesystem::remove(path);
}

TEST(SweepRunner, ResumeRejectsForeignCheckpoint) {
  const SweepSpec spec = tiny_spec();
  const std::string path = temp_path("foreign.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=tiny-grid "
        << "spec_hash=0123456789abcdef\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::string error;
  EXPECT_FALSE(run_sweep(spec, scenarios(), options, &error).has_value());
  EXPECT_NE(error.find("spec_hash does not match"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SweepRunner, ResumeRejectsCorruptMiddleRecord) {
  const SweepSpec spec = tiny_spec();
  const auto fresh = run_sweep(spec, scenarios(), {});
  ASSERT_TRUE(fresh.has_value());
  const std::string path = temp_path("corrupt.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << header_line(spec) << "\n";
    out << "garbage line\n";
    out << fresh->records[1].serialize() << "\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  std::string error;
  EXPECT_FALSE(run_sweep(spec, scenarios(), options, &error).has_value());
  std::filesystem::remove(path);
}

TEST(SweepRunner, WithoutResumeAnExistingCheckpointIsTruncated) {
  const SweepSpec spec = tiny_spec();
  const std::string path = temp_path("stale.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=other spec_hash=ffff\n";
  }
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.resume = false;  // Fresh run: the stale file must not matter.
  std::string error;
  const auto result = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->resumed_points, 0u);
}

TEST(Checkpoint, LoadTreatsMissingFileAsEmpty) {
  std::string error;
  const auto records = load_checkpoint(temp_path("does-not-exist.ckpt"),
                                       "any", 7, &error);
  ASSERT_TRUE(records.has_value()) << error;
  EXPECT_TRUE(records->empty());
}

}  // namespace
}  // namespace explframe::sweep
