// io::FaultyFs unit suite — the scripted failure plan executes exactly as
// written: Nth-operation failures (one-shot and sticky), short writes
// that keep a prefix, ENOSPC after a byte budget, crash-at-op and
// crash-at-point semantics (un-synced bytes dropped, torn half-flush at a
// sync, everything failing afterwards), and the in-order operation trace
// the torture harnesses replay against.
#include "faulty_fs.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "io/fs.hpp"

namespace explframe::io {
namespace {

/// A fresh scratch directory per test.
std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::string content;
  EXPECT_TRUE(real().read_file(path, &content).ok());
  return content;
}

TEST(FaultyFs, PassthroughRecordsTheTraceInOrder) {
  const std::string dir = fresh_dir("faulty-trace");
  FaultyFs fs(real());

  ASSERT_TRUE(durable_write(fs, dir + "/a.txt", "hello\n").ok());
  EXPECT_EQ(slurp(dir + "/a.txt"), "hello\n");

  // durable_write through the seam: open, write, sync, close, rename.
  const std::vector<FaultyFs::OpRecord> trace = fs.trace();
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].op, Op::kOpen);
  EXPECT_EQ(trace[1].op, Op::kWrite);
  EXPECT_EQ(trace[2].op, Op::kSync);
  EXPECT_EQ(trace[3].op, Op::kClose);
  EXPECT_EQ(trace[4].op, Op::kRename);
  EXPECT_EQ(fs.op_count(), 5u);
  EXPECT_NE(trace[1].describe(1).find("write"), std::string::npos);
  EXPECT_NE(trace[1].describe(1).find(".tmp"), std::string::npos);
}

TEST(FaultyFs, FailNthFiresOnceAndFailFromIsSticky) {
  const std::string dir = fresh_dir("faulty-nth");
  FaultyFs fs(real());

  // The 0th sync fails once; the retry's sync (the 1st) succeeds.
  fs.fail_nth(Op::kSync, 0, Status::transient_error("flaky fsync"));
  ASSERT_TRUE(durable_write(fs, dir + "/a.txt", "a\n").ok());
  EXPECT_EQ(slurp(dir + "/a.txt"), "a\n");

  // Sticky from the 0th rename on: every publish attempt fails, and the
  // failed attempts remove their tmp files — nothing is stranded.
  fs.reset();
  fs.fail_from(Op::kRename, 0, Status::permanent_error("broken rename"));
  EXPECT_TRUE(durable_write(fs, dir + "/b.txt", "b\n").permanent());
  EXPECT_FALSE(real().exists(dir + "/b.txt"));
  std::vector<std::string> names;
  ASSERT_TRUE(real().list(dir, &names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"a.txt"}));
}

TEST(FaultyFs, ShortWriteKeepsThePrefixThatReachedTheFile) {
  const std::string dir = fresh_dir("faulty-short");
  FaultyFs fs(real());
  fs.short_write_nth(0, 3, Status::permanent_error("short write"));

  std::unique_ptr<File> file;
  ASSERT_TRUE(fs.open(dir + "/log", OpenMode::kTruncate, &file).ok());
  EXPECT_TRUE(file->write("0123456789").permanent());
  ASSERT_TRUE(file->close().ok());  // A clean close flushes what landed.
  EXPECT_EQ(slurp(dir + "/log"), "012");
}

TEST(FaultyFs, CapacityBudgetGivesEnospcAndKeepsWhatFits) {
  const std::string dir = fresh_dir("faulty-enospc");
  FaultyFs fs(real());
  fs.set_capacity(4);

  std::unique_ptr<File> file;
  ASSERT_TRUE(fs.open(dir + "/log", OpenMode::kTruncate, &file).ok());
  const Status full = file->write("0123456789");
  EXPECT_TRUE(full.permanent());
  EXPECT_NE(full.message().find("ENOSPC"), std::string::npos);
  ASSERT_TRUE(file->close().ok());
  EXPECT_EQ(slurp(dir + "/log"), "0123");  // The disk filled mid-file.

  // durable_write against a full disk: fails, and the tmp is removed.
  EXPECT_TRUE(durable_write(fs, dir + "/b.txt", "bytes\n").permanent());
  std::vector<std::string> names;
  ASSERT_TRUE(real().list(dir, &names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"log"}));

  // Lifting the budget heals the disk.
  fs.set_capacity(std::nullopt);
  EXPECT_TRUE(durable_write(fs, dir + "/b.txt", "bytes\n").ok());
}

TEST(FaultyFs, CrashDropsUnsyncedBytesAndFailsEverythingAfter) {
  const std::string dir = fresh_dir("faulty-crash");
  FaultyFs fs(real());

  // Counting pass: 5 ops per durable_write. Crash at the rename (op 4):
  // the tmp was synced but never published, and the post-crash cleanup
  // remove fails too — exactly the stranded-tmp debris a real crash
  // leaves.
  fs.crash_at_op(4);
  EXPECT_FALSE(durable_write(fs, dir + "/a.txt", "hello\n").ok());
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(real().exists(dir + "/a.txt"));
  std::vector<std::string> names;
  ASSERT_TRUE(real().list(dir, &names).ok());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find(".tmp"), std::string::npos);

  // After the crash every operation fails and has no effect.
  std::string content;
  EXPECT_FALSE(fs.read_file(dir + "/a.txt", &content).ok());
  EXPECT_FALSE(fs.create_directories(dir + "/sub").ok());
  EXPECT_FALSE(real().exists(dir + "/sub"));
}

TEST(FaultyFs, CrashBeforeSyncLosesTheBufferedWrite) {
  const std::string dir = fresh_dir("faulty-pagecache");
  FaultyFs fs(real());

  // Crash at the write itself (op 1): the bytes only ever lived in the
  // "page cache" buffer, so the base file stays empty.
  fs.crash_at_op(1);
  std::unique_ptr<File> file;
  ASSERT_TRUE(fs.open(dir + "/log", OpenMode::kTruncate, &file).ok());
  EXPECT_FALSE(file->write("never synced\n").ok());
  EXPECT_FALSE(file->close().ok());
  EXPECT_EQ(slurp(dir + "/log"), "");
}

TEST(FaultyFs, CrashAtSyncTearsTheWriteInHalf) {
  const std::string dir = fresh_dir("faulty-torn");
  FaultyFs fs(real());

  // Ops: open(0), write(1), sync(2). Crashing at the sync flushes only
  // half of the pending bytes — the torn line the checkpoint format's
  // torn-tail tolerance exists for.
  fs.crash_at_op(2);
  std::unique_ptr<File> file;
  ASSERT_TRUE(fs.open(dir + "/log", OpenMode::kTruncate, &file).ok());
  ASSERT_TRUE(file->write("0123456789").ok());
  EXPECT_FALSE(file->sync().ok());
  EXPECT_FALSE(file->close().ok());
  EXPECT_EQ(slurp(dir + "/log"), "01234");
}

TEST(FaultyFs, CrashAtPointTriggersExactlyAtTheNamedSeam) {
  const std::string dir = fresh_dir("faulty-point");
  FaultyFs fs(real());
  fs.crash_at_point("durable-write.tmp-synced");

  // The point sits between the synced tmp and the publishing rename, so
  // the content is durable under the tmp name but never visible at the
  // destination.
  EXPECT_FALSE(durable_write(fs, dir + "/a.txt", "hello\n").ok());
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(real().exists(dir + "/a.txt"));
  const std::vector<std::string> visited = fs.visited_points();
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited[0], "durable-write.tmp-synced");
  std::vector<std::string> names;
  ASSERT_TRUE(real().list(dir, &names).ok());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(slurp(dir + "/" + names[0]), "hello\n");  // Synced, unpublished.
}

TEST(FaultyFs, ResetForgetsThePlanButKeepsTheDisk) {
  const std::string dir = fresh_dir("faulty-reset");
  FaultyFs fs(real());
  ASSERT_TRUE(durable_write(fs, dir + "/a.txt", "kept\n").ok());
  fs.crash_at_op(0);
  EXPECT_FALSE(durable_write(fs, dir + "/b.txt", "lost\n").ok());
  EXPECT_TRUE(fs.crashed());

  fs.reset();
  EXPECT_FALSE(fs.crashed());
  EXPECT_EQ(fs.op_count(), 0u);
  EXPECT_TRUE(fs.trace().empty());
  EXPECT_EQ(slurp(dir + "/a.txt"), "kept\n");  // The disk survived.
  EXPECT_TRUE(durable_write(fs, dir + "/b.txt", "works\n").ok());
}

TEST(FaultyFs, TransientInjectionIsAbsorbedByDurableWriteRetries) {
  const std::string dir = fresh_dir("faulty-retry");
  FaultyFs fs(real());
  // One transient flake on each kind durable_write touches; the bounded
  // retry rewrites from scratch and publishes.
  fs.fail_nth(Op::kWrite, 0, Status::transient_error("flaky write"));
  fs.fail_nth(Op::kRename, 1, Status::transient_error("flaky rename"));
  ASSERT_TRUE(durable_write(fs, dir + "/a.txt", "hello\n").ok());
  EXPECT_EQ(slurp(dir + "/a.txt"), "hello\n");
}

}  // namespace
}  // namespace explframe::io
