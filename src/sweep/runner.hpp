// sweep::SweepRunner — executes an expanded sweep grid across a worker
// pool, with a crash-safe checkpoint so interrupted sweeps resume.
//
// Execution model: the expanded points form a shared work queue of
// *groups* — points whose machine, master seed and trial count coincide
// and whose campaigns share a template (attack::shares_template) share
// one templated machine state, so each trial of a
// group templates once and every member forks from the snapshot
// (CampaignRunner::run_trial_group); a point that shares with nobody is a
// one-member group with no snapshot at all. Each worker thread
// steals the next unfinished group and runs it single-threaded. Results
// are keyed by point index, so the aggregate is bit-identical regardless
// of thread count, grouping or completion order — sharing and parallelism
// change only the wall clock, exactly like CampaignRunner's own guarantee
// one level down.
//
// Checkpoint contract: when a checkpoint path is configured, every
// completed point is appended to the file as one self-contained record
// line and fsynced before the worker moves on, so a killed process loses
// at most in-flight points. A checkpoint is bound to SweepSpec::spec_hash
// (canonical spec text + resolved base scenario, seeds included): resuming
// against a file whose hash does not match is an error, never a silent
// partial rerun. Resumed points are *not* re-executed — their stored trial
// records feed the emitters byte-identically to a fresh run, which
// `explsim sweep run --resume` relies on and tests assert.
//
// Sharding contract: a grid can be split across N independent processes
// with `shard_index`/`shard_count`. The partition is deterministic
// round-robin over the expanded point indices (point i belongs to shard
// i % N), so every shard expands the same grid, agrees on every point's
// identity and seed, and owns a disjoint subset. A shard run writes its
// owned records to its own checkpoint file — same format, same spec-hash
// binding — and *keeps* the file on completion: the checkpoint IS the
// shard's output artifact. merge_checkpoints() reassembles any set of
// checkpoint files (shardings may even overlap, e.g. a rerun shard plus
// an old full checkpoint) into one complete SweepResult whose emitted
// CSV/markdown bytes are identical to an unsharded run's, because the
// records are keyed by point index and every byte the emitters publish is
// simulation-derived.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "io/fs.hpp"
#include "scenario/registry.hpp"
#include "support/units.hpp"
#include "sweep/spec.hpp"

namespace explframe::sweep {

/// The published per-trial record, declared in attack/ with its columns.
using TrialRow = attack::TrialRow;

/// One completed grid point: its position plus every trial's outcome. One
/// PointRecord is one checkpoint line.
struct PointRecord {
  std::size_t index = 0;
  std::string id;  ///< Coordinate id, must match the expanded point's.
  std::vector<TrialRow> trials;

  /// The checkpoint line (no trailing newline): space-separated header
  /// fields, then one comma-joined field list per trial, ';'-joined. A
  /// trial's fields follow attack::kTrialColumns: bools as 1/0, total_time
  /// in integer nanoseconds.
  std::string serialize() const;
  /// Inverse of serialize(). Nullopt + `error` on any malformed field.
  static std::optional<PointRecord> parse(const std::string& line,
                                          std::string* error = nullptr);

  bool operator==(const PointRecord&) const = default;
};

/// Parse a checkpoint file for the sweep identified by `spec_hash`.
/// Returns the completed records (possibly empty; a missing file is an
/// empty checkpoint, not an error). Only newline-terminated lines count:
/// a torn final fragment without its newline (the mid-write crash fsync
/// cannot rule out) is ignored and its point simply reruns — the resumed
/// run truncates it before appending. Duplicate records for one point are
/// deduplicated when byte-identical (a requeued job that re-logged a
/// point) and an error when they conflict — two different results for the
/// same point mean the file mixes incompatible runs. Other errors: a
/// malformed header, a hash or sweep-name mismatch, or any malformed
/// *durable* line (those were fsynced, so that is real corruption, never
/// a crash artifact).
/// All I/O goes through `fs` (nullptr = io::real()); reads retry
/// transient errors (a flaky EIO) a bounded number of times before the
/// failure surfaces.
std::optional<std::vector<PointRecord>> load_checkpoint(
    const std::string& path, const std::string& sweep_name,
    std::uint64_t spec_hash, std::string* error = nullptr,
    io::FileSystem* fs = nullptr);

/// How run_sweep executes and checkpoints; plain data with usable defaults.
struct SweepRunOptions {
  /// Worker threads stealing points (0 = hardware concurrency, clamped to
  /// the point count). Wall-clock only; results are identical.
  std::uint32_t threads = 0;
  /// Completed-point log; empty disables checkpointing. An unsharded run
  /// deletes it after the last point completes (a finished sweep has
  /// nothing left to resume).
  std::string checkpoint_path;
  /// Load `checkpoint_path` first and skip the recorded points. Without
  /// this flag an existing checkpoint is truncated and the sweep reruns
  /// from scratch.
  bool resume = false;
  /// This process's shard (0-based) out of `shard_count`. With the default
  /// 1-way sharding the run owns every point; otherwise it owns the
  /// round-robin subset i % shard_count == shard_index, requires a
  /// checkpoint path, and keeps the checkpoint on completion (it is the
  /// shard's output, consumed by merge_checkpoints).
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;  ///< Total shards the grid is split into.
  /// When non-null, checked between work-group steals: once it reads true
  /// no further points start, the checkpoint (holding every completed
  /// point) is retained, and run_sweep fails with a "cancelled" error —
  /// the graceful-stop seam explsimd's shutdown uses; a later resume
  /// completes byte-identically.
  const std::atomic<bool>* cancel = nullptr;
  /// Progress hook, called under a lock in completion order.
  /// `resumed` marks points served from the checkpoint.
  std::function<void(const SweepPoint&, const PointRecord&, bool resumed)>
      on_point;
  /// The filesystem every checkpoint read/append goes through (nullptr =
  /// io::real()). Tests substitute io::FaultyFs (tests/io/faulty_fs.hpp)
  /// to torture the append→resume pipeline; production never sets this.
  io::FileSystem* fs = nullptr;
};

/// A finished sweep: the spec, its expanded grid and one record per owned
/// point (index order). An unsharded or merged result covers the whole
/// grid and is ready for the report emitters; a shard run's records cover
/// only its round-robin subset (`complete()` distinguishes the two).
struct SweepResult {
  SweepSpec spec;
  std::vector<SweepPoint> points;
  std::vector<PointRecord> records;
  std::size_t resumed_points = 0;  ///< Served from the checkpoint.
  double wall_seconds = 0.0;       ///< Host wall clock (stdout only).
  std::uint32_t shard_index = 0;   ///< Which shard produced `records`.
  std::uint32_t shard_count = 1;   ///< 1 = the result covers the grid.

  /// True when `records` holds every expanded point — the precondition of
  /// every report emitter (shard results are merged first).
  bool complete() const noexcept { return records.size() == points.size(); }
};

/// Expand and execute `spec` against `registry` per `options`. Nullopt +
/// `error` on expansion, sharding or checkpoint errors, or when
/// `options.cancel` fired before the owned points finished (never on
/// attack outcomes — a failing attack is a result, not an error).
/// Checkpoint I/O failures are real errors, not warnings: a transient one
/// (io::Status taxonomy) is retried a bounded, deterministic number of
/// times; a persistent one aborts the sweep after the in-flight groups
/// drain, keeping the checkpoint (every *recorded* point was fsynced, so
/// `--resume` continues from it once the disk recovers).
std::optional<SweepResult> run_sweep(const SweepSpec& spec,
                                     const scenario::Registry& registry,
                                     const SweepRunOptions& options = {},
                                     std::string* error = nullptr);

/// Partition `configs` into template-sharing groups, as run_sweep does
/// with its pending points: two configs share a group when their machines,
/// master seeds and trial counts are equal and their campaigns share a
/// template (attack::shares_template). Each group lists indices into
/// `configs` in order; groups appear in order of their first member.
std::vector<std::vector<std::size_t>> template_groups(
    const std::vector<attack::RunnerConfig>& configs);

/// Reassemble one complete SweepResult from shard checkpoint files.
/// Every file must carry `spec`'s hash (foreign checkpoints are refused),
/// torn final lines are tolerated exactly as in load_checkpoint, records
/// duplicated across files deduplicate when identical and hard-error when
/// they conflict, and every expanded point must be covered by exactly one
/// surviving record — a missing point is an error naming it, never a
/// silently partial report. The merged result's emitted CSV/markdown is
/// byte-identical to an unsharded run of the same spec.
std::optional<SweepResult> merge_checkpoints(
    const SweepSpec& spec, const scenario::Registry& registry,
    const std::vector<std::string>& checkpoint_paths,
    std::string* error = nullptr, io::FileSystem* fs = nullptr);

}  // namespace explframe::sweep
