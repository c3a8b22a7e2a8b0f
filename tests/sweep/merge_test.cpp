// Fault-injection suite for checkpoint merge and resume: torn final
// lines, duplicated records (identical → dedupe, conflicting → hard
// error), foreign spec hashes, and a kill-9 mid-shard followed by
// --resume — every failure mode the sharded workflow can meet on a real
// disk, each pinned to its contracted behaviour.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
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

/// Write a checkpoint file holding `records` (plus an optional torn tail).
std::string write_checkpoint(const std::string& name, const SweepSpec& spec,
                             const std::vector<PointRecord>& records,
                             const std::string& torn_tail = "") {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << header_line(spec) << "\n";
  for (const PointRecord& record : records) out << record.serialize() << "\n";
  out << torn_tail;  // No newline: a mid-write crash artifact.
  return path;
}

/// The reference run every fault scenario is measured against.
const SweepResult& fresh() {
  static const SweepResult result = [] {
    const auto run = run_sweep(tiny_spec(), scenarios(), {});
    EXPLFRAME_CHECK(run.has_value());
    return *run;
  }();
  return result;
}

TEST(MergeFaults, TornFinalLineIsDroppedWhenItsPointIsCoveredElsewhere) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  // Shard A logged points 0+2 and died re-writing point 2's line; shard B
  // holds 1+3. The torn fragment must vanish, not corrupt the merge.
  const std::string a = write_checkpoint(
      "torn-a.ckpt", spec, {records[0], records[2]},
      records[2].serialize().substr(0, 25));
  const std::string b =
      write_checkpoint("torn-b.ckpt", spec, {records[1], records[3]});
  std::string error;
  const auto merged = merge_checkpoints(spec, scenarios(), {a, b}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->records, records);
  EXPECT_EQ(sweep_markdown(*merged), sweep_markdown(fresh()));
  EXPECT_EQ(sweep_csv(*merged), sweep_csv(fresh()));
}

TEST(MergeFaults, TornOnlyCopyOfAPointIsAMissingPointError) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  // Point 3's only record is the torn fragment: the merge must name it.
  const std::string a = write_checkpoint(
      "torn-only-a.ckpt", spec, {records[0], records[2]});
  const std::string b = write_checkpoint(
      "torn-only-b.ckpt", spec, {records[1]},
      records[3].serialize().substr(0, 30));
  std::string error;
  EXPECT_FALSE(merge_checkpoints(spec, scenarios(), {a, b}, &error));
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
  EXPECT_NE(error.find(records[3].id), std::string::npos) << error;
}

TEST(MergeFaults, IdenticalDuplicatesDedupeAcrossAndWithinFiles) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  // Point 1 appears in both files; point 2 twice in one file (a requeued
  // job re-logging its work). Byte-identical copies are harmless.
  const std::string a = write_checkpoint(
      "dup-a.ckpt", spec, {records[0], records[1], records[2], records[2]});
  const std::string b =
      write_checkpoint("dup-b.ckpt", spec, {records[1], records[3]});
  std::string error;
  const auto merged = merge_checkpoints(spec, scenarios(), {a, b}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->records, records);
}

TEST(MergeFaults, ConflictingDuplicateAcrossFilesIsAHardError) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  PointRecord tampered = records[1];
  tampered.trials[0].rows_scanned += 1;  // Same point, different result.
  const std::string a = write_checkpoint(
      "conflict-a.ckpt", spec, {records[0], records[1]});
  const std::string b = write_checkpoint(
      "conflict-b.ckpt", spec, {tampered, records[2], records[3]});
  std::string error;
  EXPECT_FALSE(merge_checkpoints(spec, scenarios(), {a, b}, &error));
  EXPECT_NE(error.find("conflicting"), std::string::npos) << error;
}

TEST(MergeFaults, ConflictingDuplicateWithinOneFileIsAHardError) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  PointRecord tampered = records[0];
  tampered.trials[1].flips_found += 7;
  const std::string a = write_checkpoint(
      "conflict-within.ckpt", spec,
      {records[0], tampered, records[1], records[2], records[3]});
  std::string error;
  EXPECT_FALSE(merge_checkpoints(spec, scenarios(), {a}, &error));
  EXPECT_NE(error.find("conflicting"), std::string::npos) << error;
}

// Resume and merge share one grid-fit check: a record whose id, index or
// trial count disagrees with the expanded grid is refused by both.
TEST(MergeFaults, RecordsOffTheGridAreRefusedByMergeAndResume) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  PointRecord wrong_id = records[1];
  wrong_id.id = records[2].id;
  PointRecord short_trials = records[1];
  short_trials.trials.pop_back();
  PointRecord past_end = records[1];
  past_end.index = records.size();
  for (const PointRecord& bad : {wrong_id, short_trials, past_end}) {
    const std::string path =
        write_checkpoint("off-grid.ckpt", spec, {records[0], bad});
    std::string error;
    EXPECT_FALSE(merge_checkpoints(spec, scenarios(), {path}, &error));
    EXPECT_NE(error.find("does not match the expanded grid"),
              std::string::npos)
        << error;
    SweepRunOptions options;
    options.checkpoint_path = path;
    options.resume = true;
    error.clear();
    EXPECT_FALSE(run_sweep(spec, scenarios(), options, &error));
    EXPECT_NE(error.find("does not match the expanded grid"),
              std::string::npos)
        << error;
  }
}

TEST(MergeFaults, ForeignSpecHashIsRefused) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  const std::string good =
      write_checkpoint("foreign-good.ckpt", spec, records);
  const std::string foreign = temp_path("foreign-bad.ckpt");
  {
    std::ofstream out(foreign, std::ios::binary | std::ios::trunc);
    out << "explsim-sweep-checkpoint v1 sweep=tiny-grid "
        << "spec_hash=0123456789abcdef\n";
  }
  std::string error;
  EXPECT_FALSE(
      merge_checkpoints(spec, scenarios(), {good, foreign}, &error));
  EXPECT_NE(error.find("spec_hash"), std::string::npos) << error;
}

TEST(MergeFaults, MissingShardIsAnErrorNamingThePoints) {
  const SweepSpec spec = tiny_spec();
  const auto& records = fresh().records;
  // Only shard 1-of-2 (points 0 and 2): the merge must list 1 and 3.
  const std::string a = write_checkpoint(
      "half.ckpt", spec, {records[0], records[2]});
  std::string error;
  EXPECT_FALSE(merge_checkpoints(spec, scenarios(), {a}, &error));
  EXPECT_NE(error.find("2 point(s) missing"), std::string::npos) << error;
  EXPECT_NE(error.find(records[1].id), std::string::npos) << error;
  EXPECT_NE(error.find(records[3].id), std::string::npos) << error;
}

TEST(MergeFaults, UnreadableCheckpointIsAnError) {
  std::string error;
  EXPECT_FALSE(merge_checkpoints(tiny_spec(), scenarios(),
                                 {temp_path("no-such-file.ckpt")}, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST(MergeFaults, EmptyCheckpointListIsAnError) {
  std::string error;
  EXPECT_FALSE(merge_checkpoints(tiny_spec(), scenarios(), {}, &error));
  EXPECT_FALSE(error.empty());
}

// The kill-9 drill: a shard dies mid-write, the retry resumes from the
// surviving prefix, and the final merge is byte-identical to a run that
// never crashed. This is the daemon's crash-recovery path end to end.
TEST(MergeFaults, KillNineMidShardThenResumeCompletesByteIdentical) {
  const SweepSpec spec = tiny_spec();

  // Run shard 1-of-2 to completion, then simulate the kill: truncate the
  // file to the header, one durable record, and a torn fragment.
  const std::string shard0 = temp_path("kill9-shard0.ckpt");
  std::filesystem::remove(shard0);
  SweepRunOptions options;
  options.checkpoint_path = shard0;
  options.shard_index = 0;
  options.shard_count = 2;
  std::string error;
  {
    const auto full = run_sweep(spec, scenarios(), options, &error);
    ASSERT_TRUE(full.has_value()) << error;
    ASSERT_EQ(full->records.size(), 2u);
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out << header_line(spec) << "\n"
        << full->records[0].serialize() << "\n"
        << full->records[1].serialize().substr(0, 40);
  }

  // The retry: same shard, --resume. The durable point is served from
  // the log, the torn one reruns.
  options.resume = true;
  std::size_t resumed = 0;
  options.on_point = [&](const SweepPoint&, const PointRecord&,
                         bool was_resumed) {
    if (was_resumed) resumed += 1;
  };
  const auto retried = run_sweep(spec, scenarios(), options, &error);
  ASSERT_TRUE(retried.has_value()) << error;
  EXPECT_EQ(resumed, 1u);
  EXPECT_TRUE(std::filesystem::exists(shard0));  // Shards keep their log.

  // Shard 2-of-2 never crashed.
  SweepRunOptions other;
  other.checkpoint_path = temp_path("kill9-shard1.ckpt");
  std::filesystem::remove(other.checkpoint_path);
  other.shard_index = 1;
  other.shard_count = 2;
  ASSERT_TRUE(run_sweep(spec, scenarios(), other, &error)) << error;

  const auto merged = merge_checkpoints(
      spec, scenarios(), {shard0, other.checkpoint_path}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->records, fresh().records);
  EXPECT_EQ(sweep_markdown(*merged), sweep_markdown(fresh()));
  EXPECT_EQ(sweep_csv(*merged), sweep_csv(fresh()));
}

}  // namespace
}  // namespace explframe::sweep
