// Sweep-checkpoint crash-consistency torture — the append→resume pipeline
// under every injected failure:
//
//   - a counting pass over io::FaultyFs records every checkpoint
//     operation a small sweep performs; the sweep then re-runs once per
//     operation index with a simulated process crash there (un-synced
//     bytes dropped, a crash at a sync leaving a TORN half-line), and a
//     `--resume` on the healthy filesystem must emit byte-identical CSV
//     and markdown every single time;
//   - the satellite regression for the once-unchecked std::fwrite: a
//     failed record append now aborts the sweep with a "cannot write
//     checkpoint" error while keeping every durable record for resume,
//     and a *transient* append flake is absorbed by the bounded retry
//     with no error at all;
//   - ENOSPC mid-run (a byte budget on the filesystem) aborts resumably,
//     and lifting the budget lets resume finish the run.
//
// Each injection run appends a line to torture_trace.checkpoint.log (the
// CI failure artifact).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "../io/faulty_fs.hpp"
#include "io/fs.hpp"
#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {
namespace {

/// Small but real: 2x2 points x 2 trials of the quickstart attack.
const SweepSpec& tiny_spec() {
  static const SweepSpec spec = [] {
    const auto parsed = SweepSpec::from_sweep(
        "name = tiny-grid\n"
        "title = Tiny torture grid\n"
        "base = quickstart\n"
        "base.trials = 2\n"
        "axis.defence = none,trr\n"
        "axis.max_rows = 24,48\n");
    EXPLFRAME_CHECK(parsed.has_value());
    return *parsed;
  }();
  return spec;
}

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// A fresh scratch directory per injection run.
std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One line per injection run; lands in the ctest cwd (build/) so CI can
/// upload it when the suite fails.
void log_line(const std::string& line) {
  static std::ofstream log("torture_trace.checkpoint.log", std::ios::trunc);
  log << line << "\n";
  log.flush();
}

/// The undisturbed sweep's emitted bytes — what every resume must
/// reproduce.
struct Reference {
  std::string csv;
  std::string md;
};

const Reference& reference() {
  static const Reference ref = [] {
    SweepRunOptions options;
    options.threads = 1;
    std::string error;
    const auto result = run_sweep(tiny_spec(), scenarios(), options, &error);
    EXPLFRAME_CHECK_MSG(result.has_value(), error.c_str());
    Reference r;
    r.csv = sweep_csv(*result);
    r.md = sweep_markdown(*result);
    return r;
  }();
  return ref;
}

SweepRunOptions checkpointed_options(const std::string& path,
                                     io::FileSystem* fs) {
  SweepRunOptions options;
  options.threads = 1;  // One worker => a deterministic operation trace.
  options.checkpoint_path = path;
  options.resume = true;
  options.fs = fs;
  return options;
}

/// Resume on the real filesystem and assert the emitted bytes match the
/// reference — the "--resume finishes the run byte-identically" contract.
/// Returns the resumed result for extra assertions.
SweepResult resume_and_verify(const std::string& path,
                              const std::string& label) {
  std::string error;
  const auto resumed = run_sweep(tiny_spec(), scenarios(),
                                 checkpointed_options(path, nullptr), &error);
  EXPECT_TRUE(resumed.has_value()) << label << ": " << error;
  if (!resumed) return SweepResult{};
  EXPECT_EQ(sweep_csv(*resumed), reference().csv)
      << label << ": resumed csv drifted";
  EXPECT_EQ(sweep_markdown(*resumed), reference().md)
      << label << ": resumed markdown drifted";
  EXPECT_FALSE(io::real().exists(path))
      << label << ": finished sweep left its checkpoint behind";
  return *resumed;
}

TEST(CheckpointTorture, CrashAtEveryOperationThenResumeIsByteIdentical) {
  // Counting pass: no faults, record the checkpoint operation trace.
  io::FaultyFs counter(io::real());
  const std::string count_dir = fresh_dir("ckpt-torture-count");
  std::string error;
  const auto counted =
      run_sweep(tiny_spec(), scenarios(),
                checkpointed_options(count_dir + "/grid.ckpt", &counter),
                &error);
  ASSERT_TRUE(counted.has_value()) << error;
  ASSERT_EQ(sweep_csv(*counted), reference().csv);
  const std::vector<io::FaultyFs::OpRecord> trace = counter.trace();
  // open + header write/sync + one write/sync per point + close + remove.
  ASSERT_GE(trace.size(), 3u + 2u * counted->points.size());
  log_line("counting pass: " + std::to_string(trace.size()) +
           " checkpoint operations");

  std::size_t total_resumed = 0;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const std::string label = "crash at " + trace[k].describe(k);
    log_line(label);
    const std::string dir = fresh_dir("ckpt-torture-" + std::to_string(k));
    const std::string path = dir + "/grid.ckpt";
    io::FaultyFs faulty(io::real());
    faulty.crash_at_op(k);
    std::string crash_error;
    const auto crashed = run_sweep(tiny_spec(), scenarios(),
                                   checkpointed_options(path, &faulty),
                                   &crash_error);
    EXPECT_TRUE(faulty.crashed()) << label;
    if (crashed.has_value()) {
      // A crash after the last record (at the close or the final remove)
      // still yields a complete, correct result.
      EXPECT_EQ(sweep_csv(*crashed), reference().csv) << label;
    } else {
      // The abort names its cause (which op it hit varies): either the
      // checkpoint path or the injected crash itself.
      EXPECT_FALSE(crash_error.empty()) << label;
    }
    total_resumed += resume_and_verify(path, label).resumed_points;
    if (::testing::Test::HasFailure()) {
      log_line("FAILED: " + label);
      return;
    }
  }
  // Some crashes land after fsynced records, so resume must actually have
  // served points from checkpoints — not quietly recomputed everything.
  EXPECT_GT(total_resumed, 0u);
  log_line("crash-at-every-op: all " + std::to_string(trace.size()) +
           " points recovered; " + std::to_string(total_resumed) +
           " points served from checkpoints");
}

TEST(CheckpointTorture, FailedAppendAbortsResumablyAndTransientIsAbsorbed) {
  // Sync #0 durably lands the header, sync #1 the first record — the op
  // the once-unchecked fwrite hid failures of.
  {
    const std::string dir = fresh_dir("ckpt-torture-append");
    const std::string path = dir + "/grid.ckpt";
    io::FaultyFs faulty(io::real());
    faulty.fail_from(io::Op::kSync, 1,
                     io::Status::from_errno(ENOSPC, "injected disk full"));
    std::string error;
    const auto aborted = run_sweep(tiny_spec(), scenarios(),
                                   checkpointed_options(path, &faulty),
                                   &error);
    EXPECT_FALSE(aborted.has_value());
    EXPECT_NE(error.find("cannot write checkpoint"), std::string::npos)
        << error;
    // The checkpoint survives the abort — it is the resume artifact.
    EXPECT_TRUE(io::real().exists(path));
    log_line("append failure surfaced: " + error);
    resume_and_verify(path, "recovery after failed append");
  }

  // One transient flake on the same sync: the bounded retry reopens,
  // truncates any torn tail and rewrites — no error, reference bytes.
  {
    const std::string dir = fresh_dir("ckpt-torture-flake");
    const std::string path = dir + "/grid.ckpt";
    io::FaultyFs faulty(io::real());
    faulty.fail_nth(io::Op::kSync, 1,
                    io::Status::transient_error("injected flaky fsync"));
    std::string error;
    const auto result = run_sweep(tiny_spec(), scenarios(),
                                  checkpointed_options(path, &faulty),
                                  &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(sweep_csv(*result), reference().csv);
    EXPECT_EQ(sweep_markdown(*result), reference().md);
    EXPECT_FALSE(io::real().exists(path));
    log_line("transient append flake absorbed");
  }
}

TEST(CheckpointTorture, EnospcMidSweepResumesOnceTheDiskRecovers) {
  const std::string dir = fresh_dir("ckpt-torture-enospc");
  const std::string path = dir + "/grid.ckpt";
  io::FaultyFs faulty(io::real());
  // Enough budget for the header (and perhaps a record), then the disk
  // is full: the sweep must abort with a checkpoint error, not lose work
  // silently.
  faulty.set_capacity(80);
  std::string error;
  const auto aborted = run_sweep(tiny_spec(), scenarios(),
                                 checkpointed_options(path, &faulty),
                                 &error);
  EXPECT_FALSE(aborted.has_value());
  EXPECT_NE(error.find("checkpoint"), std::string::npos) << error;
  log_line("ENOSPC abort: " + error);

  // The operator frees disk space; resume (through the SAME healed
  // filesystem) finishes the sweep byte-identically.
  faulty.set_capacity(std::nullopt);
  const auto resumed = run_sweep(tiny_spec(), scenarios(),
                                 checkpointed_options(path, &faulty),
                                 &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(sweep_csv(*resumed), reference().csv);
  EXPECT_EQ(sweep_markdown(*resumed), reference().md);
  log_line("ENOSPC recovery: resumed to reference bytes");
}

TEST(CheckpointTorture, CrashAtTheAppendPointKeepsTheRecordDurable) {
  const std::string dir = fresh_dir("ckpt-torture-point");
  const std::string path = dir + "/grid.ckpt";
  io::FaultyFs faulty(io::real());
  faulty.crash_at_point("sweep.checkpoint.appended");
  std::string error;
  const auto crashed = run_sweep(tiny_spec(), scenarios(),
                                 checkpointed_options(path, &faulty),
                                 &error);
  EXPECT_FALSE(crashed.has_value());
  EXPECT_TRUE(faulty.crashed());
  const std::vector<std::string> visited = faulty.visited_points();
  EXPECT_NE(std::find(visited.begin(), visited.end(),
                      std::string("sweep.checkpoint.appended")),
            visited.end());

  // The point sits right after a record's fsync, so at least that record
  // is durable and the resume serves it instead of recomputing.
  const SweepResult resumed =
      resume_and_verify(path, "crash at sweep.checkpoint.appended");
  EXPECT_GE(resumed.resumed_points, 1u);
  log_line("crash point sweep.checkpoint.appended: record survived, " +
           std::to_string(resumed.resumed_points) + " points resumed");
}

}  // namespace
}  // namespace explframe::sweep
