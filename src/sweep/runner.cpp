#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "support/check.hpp"
#include "support/text.hpp"

namespace explframe::sweep {

namespace {

constexpr char kCheckpointMagic[] = "explsim-sweep-checkpoint v1";

// A trial is its columns' fields, comma-joined: bools as 1/0, counts and
// total_time as decimal integers, failure_stage verbatim (never empty).
std::optional<TrialRow> parse_trial(const std::string& text) {
  const auto fields = split(text, ',');
  if (fields.size() != std::tuple_size_v<decltype(attack::kTrialColumns)>)
    return std::nullopt;
  TrialRow row;
  auto next = fields.begin();
  bool ok = true;
  attack::for_each_column(row, [&](const auto&, auto& value) {
    using T = std::decay_t<decltype(value)>;
    const std::string& field = *next++;
    if constexpr (std::is_same_v<T, bool>) {
      ok = ok && (field == "1" || field == "0");
      value = field == "1";
    } else if constexpr (std::is_same_v<T, std::string>) {
      ok = ok && !field.empty();
      value = field;
    } else {
      const auto number = parse_u64(field);
      ok = ok && number && *number <= std::numeric_limits<T>::max();
      value = static_cast<T>(number.value_or(0));
    }
  });
  if (!ok) return std::nullopt;
  return row;
}

std::string serialize_trial(const TrialRow& row) {
  std::string out;
  attack::for_each_column(row, [&](const auto&, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (!out.empty()) out += ',';
    if constexpr (std::is_same_v<T, bool>)
      out += value ? '1' : '0';
    else if constexpr (std::is_same_v<T, std::string>)
      out += value;
    else
      out += std::to_string(value);
  });
  return out;
}

/// The length of `content`'s durable prefix: everything up to and
/// including the last newline. A trailing fragment with no newline is a
/// torn final line — the crash fsync cannot rule out — and is *not*
/// durable: load_checkpoint ignores it and CheckpointWriter truncates it
/// before appending (so a resumed record never concatenates onto it).
std::size_t durable_prefix(const std::string& content) noexcept {
  const std::size_t last_newline = content.rfind('\n');
  return last_newline == std::string::npos ? 0 : last_newline + 1;
}

/// Append-only, line-fsynced checkpoint writer over io::FileSystem.
/// Every append is durable (synced) before it returns OK, so a kill loses
/// only in-flight points — and every failure now *surfaces*: an append
/// whose write or fsync fails reports an io::Status instead of silently
/// pretending the line hit the disk. Transient failures retry a bounded,
/// deterministic number of times; each retry drops the handle and reopens
/// in append mode, truncating the torn tail first so the re-written line
/// never concatenates onto partial bytes.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(io::FileSystem& fs) : fs_(fs) {}
  ~CheckpointWriter() { close(); }

  io::Status open(const std::string& path, const std::string& sweep_name,
                  std::uint64_t spec_hash, bool append) {
    path_ = path;
    header_ = std::string(kCheckpointMagic) + " sweep=" + sweep_name +
              " spec_hash=" + hex16(spec_hash) + "\n";
    return io::with_retry(io::kDefaultRetryAttempts,
                          [this, append] { return prepare(append); });
  }

  /// Durably log one completed point. Never called concurrently (the
  /// worker pool appends under the run_sweep mutex).
  io::Status append(const PointRecord& record) {
    if (path_.empty()) return io::Status::ok_status();  // Disabled.
    const std::string line = record.serialize() + "\n";
    return io::with_retry(io::kDefaultRetryAttempts, [this, &line] {
      if (!file_) {
        // A previous attempt failed and dropped the handle; reopening in
        // append mode runs the torn-tail truncation, so the retried line
        // lands after the last durable record, not after a fragment.
        const io::Status reopened = prepare(/*append=*/true);
        if (!reopened.ok()) return reopened;
      }
      io::Status status = file_->write(line);
      if (status.ok()) status = file_->sync();
      if (status.ok()) {
        fs_.crash_point("sweep.checkpoint.appended");
        return status;
      }
      // The file may hold a torn prefix of the line; drop the handle so
      // the next attempt (or the next resume) truncates it.
      (void)file_->close();
      file_.reset();
      return status;
    });
  }

  void close() {
    if (!file_) return;
    (void)file_->close();
    file_.reset();
  }

 private:
  /// One open attempt: truncate any torn tail (append mode), then open
  /// the handle via open_handle(). The retry unit of open() and of the
  /// mid-append reopen.
  io::Status prepare(bool append) {
    bool continue_existing = false;
    if (append && fs_.exists(path_)) {
      // Drop a torn final line before appending, mirroring what
      // load_checkpoint just ignored — otherwise the next record would
      // concatenate onto the fragment and corrupt the file for good.
      std::string content;
      const io::Status read = fs_.read_file(path_, &content);
      if (read.ok()) {
        const std::size_t keep = durable_prefix(content);
        if (keep != content.size()) {
          const io::Status truncated = fs_.truncate(path_, keep);
          if (!truncated.ok()) return truncated;
        }
        // A file torn before its header completed holds nothing durable;
        // start it over.
        continue_existing = keep > 0;
      } else if (!read.is_not_found()) {
        return read;
      }
    }
    return open_handle(continue_existing);
  }

  /// (Re)open the handle; a fresh file gets the header, written and
  /// synced before any record may follow it.
  io::Status open_handle(bool continue_existing) {
    io::Status status =
        fs_.open(path_, continue_existing ? io::OpenMode::kAppend
                                          : io::OpenMode::kTruncate,
                 &file_);
    if (!status.ok()) return status;
    if (!continue_existing) {
      status = file_->write(header_);
      if (status.ok()) status = file_->sync();
      if (!status.ok()) {
        (void)file_->close();
        file_.reset();
        return status;
      }
    }
    return io::Status::ok_status();
  }

  io::FileSystem& fs_;
  std::unique_ptr<io::File> file_;
  std::string path_;    ///< Empty until open(): appends are no-ops.
  std::string header_;  ///< The full header line, built once in open().
};

/// load_checkpoint, then require every record to be one of `points`: an
/// in-range index whose id and trial count match the expanded grid.
std::optional<std::vector<PointRecord>> load_grid_records(
    const std::string& path, const SweepSpec& spec, std::uint64_t spec_hash,
    const std::vector<SweepPoint>& points, std::string* error,
    io::FileSystem& fs) {
  auto records = load_checkpoint(path, spec.name, spec_hash, error, &fs);
  if (!records) return std::nullopt;
  for (const PointRecord& record : *records) {
    if (record.index >= points.size() ||
        record.id != points[record.index].id ||
        record.trials.size() != points[record.index].scenario.trials) {
      set_error(error, path + ": record for point " +
                           std::to_string(record.index) +
                           " does not match the expanded grid");
      return std::nullopt;
    }
  }
  return records;
}

}  // namespace

std::string PointRecord::serialize() const {
  std::string out = "point " + std::to_string(index) + " " + id + " ";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (i > 0) out += ';';
    out += serialize_trial(trials[i]);
  }
  return out;
}

std::optional<PointRecord> PointRecord::parse(const std::string& line,
                                              std::string* error) {
  const auto fail = [&](const std::string& what)
      -> std::optional<PointRecord> {
    set_error(error, what);
    return std::nullopt;
  };

  const auto tokens = split(line, ' ');
  if (tokens.size() != 4 || tokens[0] != "point")
    return fail("malformed record line '" + line + "'");
  const auto index = parse_u64(tokens[1]);
  if (!index) return fail("bad point index '" + tokens[1] + "'");
  PointRecord record;
  record.index = static_cast<std::size_t>(*index);
  record.id = tokens[2];
  if (record.id.empty()) return fail("empty point id");
  for (const std::string& text : split(tokens[3], ';')) {
    const auto trial = parse_trial(text);
    if (!trial) return fail("malformed trial record '" + text + "'");
    record.trials.push_back(*trial);
  }
  return record;
}

std::optional<std::vector<PointRecord>> load_checkpoint(
    const std::string& path, const std::string& sweep_name,
    std::uint64_t spec_hash, std::string* error, io::FileSystem* fs_arg) {
  io::FileSystem& fs = fs_arg ? *fs_arg : io::real();

  const auto fail = [&](const std::string& what)
      -> std::optional<std::vector<PointRecord>> {
    set_error(error, path + ": " + what);
    return std::nullopt;
  };

  std::vector<PointRecord> records;
  std::string file_content;
  const io::Status read = io::with_retry(
      io::kDefaultRetryAttempts,
      [&] { return fs.read_file(path, &file_content); });
  // A missing checkpoint is an empty one — nothing completed yet. A file
  // that exists but cannot be read (EIO through the retry budget) is NOT:
  // treating it as empty would silently rerun completed points.
  if (read.is_not_found()) return records;
  if (!read.ok()) return fail(read.message());

  // Only newline-terminated lines are durable; a torn final fragment is
  // the mid-write crash and its point simply reruns (the writer truncates
  // it before appending). Every durable line, by contrast, was fsynced —
  // if one fails to parse that is real corruption, never a crash artifact.
  std::istringstream in(
      file_content.substr(0, durable_prefix(file_content)));
  std::string header;
  if (!std::getline(in, header)) return records;  // Torn before the header.
  const std::string expected = std::string(kCheckpointMagic) + " sweep=" +
                               sweep_name + " spec_hash=" + hex16(spec_hash);
  if (header != expected) {
    if (header.rfind(kCheckpointMagic, 0) != 0)
      return fail("not a sweep checkpoint");
    return fail(
        "checkpoint belongs to a different sweep spec (its spec_hash does "
        "not match; the spec, its seeds or its base scenario changed). "
        "Delete the file to start over.");
  }

  std::unordered_map<std::size_t, std::size_t> position;  // index -> slot
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string parse_error;
    const auto record = PointRecord::parse(line, &parse_error);
    if (!record) return fail(parse_error);
    // A point logged twice with the same outcome deduplicates (a requeued
    // job may re-log work it had already made durable); two *different*
    // outcomes for one point mean the file mixes incompatible runs.
    const auto [seen, fresh] = position.emplace(record->index, records.size());
    if (fresh) {
      records.push_back(*record);
    } else if (records[seen->second] != *record) {
      return fail("conflicting duplicate records for point " +
                  std::to_string(record->index) +
                  " (same index, different results)");
    }
  }
  return records;
}

std::vector<std::vector<std::size_t>> template_groups(
    const std::vector<attack::RunnerConfig>& configs) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const attack::RunnerConfig& config = configs[i];
    const auto shares = [&](const std::vector<std::size_t>& group) {
      const attack::RunnerConfig& base = configs[group.front()];
      return base.system == config.system && base.seed == config.seed &&
             base.trials == config.trials &&
             attack::shares_template(base.campaign, config.campaign);
    };
    const auto it = std::find_if(groups.begin(), groups.end(), shares);
    if (it == groups.end())
      groups.push_back({i});
    else
      it->push_back(i);
  }
  return groups;
}

std::optional<SweepResult> run_sweep(const SweepSpec& spec,
                                     const scenario::Registry& registry,
                                     const SweepRunOptions& options,
                                     std::string* error) {
  const auto points = spec.expand(registry, error);
  if (!points) return std::nullopt;
  EXPLFRAME_CHECK(!points->empty());
  const std::uint64_t hash = spec.spec_hash(registry);
  io::FileSystem& fs = options.fs ? *options.fs : io::real();

  const auto fail = [&](const std::string& what)
      -> std::optional<SweepResult> {
    set_error(error, what);
    return std::nullopt;
  };

  // Sharding: this run owns the round-robin subset i % N == shard_index.
  // The partition is a pure function of the expanded point order, so every
  // shard of a grid agrees on who owns what without coordination.
  if (options.shard_count == 0)
    return fail("shard_count must be at least 1");
  if (options.shard_index >= options.shard_count)
    return fail("shard index " + std::to_string(options.shard_index) +
                " is out of range for " +
                std::to_string(options.shard_count) + " shard(s)");
  const bool sharded = options.shard_count > 1;
  const auto owns = [&](std::size_t index) {
    return index % options.shard_count == options.shard_index;
  };
  if (sharded && options.checkpoint_path.empty())
    return fail(
        "a sharded run needs a checkpoint path (the checkpoint is the "
        "shard's output, consumed by merge)");
  if (sharded && (*points).size() < options.shard_count &&
      options.shard_index >= (*points).size())
    return fail("shard " + std::to_string(options.shard_index + 1) + "/" +
                std::to_string(options.shard_count) + " owns none of the " +
                std::to_string((*points).size()) +
                " point(s); use fewer shards");

  // Completed records, indexed by point; resumed ones come pre-filled.
  std::vector<std::optional<PointRecord>> slots(points->size());
  std::size_t resumed = 0;
  if (!options.checkpoint_path.empty() && options.resume) {
    const auto loaded = load_grid_records(options.checkpoint_path, spec,
                                          hash, *points, error, fs);
    if (!loaded) return std::nullopt;
    for (const PointRecord& record : *loaded) {
      if (!owns(record.index))
        return fail(options.checkpoint_path + ": record for point " +
                    std::to_string(record.index) + " belongs to another " +
                    "shard (this run is shard " +
                    std::to_string(options.shard_index + 1) + "/" +
                    std::to_string(options.shard_count) + ")");
      slots[record.index] = record;
      ++resumed;
    }
  }

  CheckpointWriter writer(fs);
  if (!options.checkpoint_path.empty()) {
    const io::Status opened =
        writer.open(options.checkpoint_path, spec.name, hash, options.resume);
    if (!opened.ok())
      return fail("cannot open checkpoint '" + options.checkpoint_path +
                  "': " + opened.message());
  }

  std::mutex mutex;  // Guards the writer, the slots and the progress hook.
  // The first checkpoint-append failure (after its bounded retries); once
  // set, workers stop stealing groups and the sweep aborts.
  io::Status append_failure;
  if (options.on_point) {
    for (const auto& slot : slots)
      if (slot) options.on_point((*points)[slot->index], *slot, true);
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < slots.size(); ++i)
    if (owns(i) && !slots[i]) pending.push_back(i);

  // determinism: allow(steady-clock) sweep wall_seconds diagnostic, stdout only
  const auto start = std::chrono::steady_clock::now();
  if (!pending.empty()) {
    // A group templates once per trial and forks every member from the
    // snapshot; grouping never changes a reported byte, only wall clock.
    std::vector<attack::RunnerConfig> configs;
    configs.reserve(pending.size());
    for (const std::size_t index : pending)
      configs.push_back((*points)[index].scenario.runner_config());
    std::vector<std::vector<std::size_t>> groups = template_groups(configs);
    for (std::vector<std::size_t>& group : groups)
      for (std::size_t& member : group) member = pending[member];

    std::uint32_t threads = options.threads;
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    if (threads > groups.size())
      threads = static_cast<std::uint32_t>(groups.size());

    // Work stealing: each worker pulls the next unfinished group; a worker
    // stuck on a slow group never blocks the rest of the grid.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> io_failed{false};
    const auto worker = [&] {
      while (true) {
        // The graceful-stop seam: once `cancel` reads true no further
        // group starts; everything already appended to the checkpoint
        // stays durable, so a later --resume completes byte-identically.
        // A checkpoint-append failure stops the pool the same way: points
        // the sweep cannot make durable must not be treated as done.
        if (options.cancel && options.cancel->load()) return;
        if (io_failed.load()) return;
        const std::size_t slot = next.fetch_add(1);
        if (slot >= groups.size()) return;
        const std::vector<std::size_t>& group = groups[slot];
        std::vector<PointRecord> done(group.size());
        for (std::size_t i = 0; i < group.size(); ++i) {
          done[i].index = group[i];
          done[i].id = (*points)[group[i]].id;
        }
        // One machine per trial, one templating pass, one fork per member
        // point. The sweep parallelises across groups, so a group's trials
        // run serially on this worker.
        const attack::RunnerConfig base =
            (*points)[group[0]].scenario.runner_config();
        std::vector<attack::CampaignConfig> variants;
        variants.reserve(group.size());
        for (const std::size_t index : group)
          variants.push_back((*points)[index].scenario.runner_config().campaign);
        for (std::uint32_t trial = 0; trial < base.trials; ++trial) {
          const std::vector<attack::CampaignReport> reports =
              attack::CampaignRunner::run_trial_group(base, variants, trial);
          for (std::size_t i = 0; i < group.size(); ++i)
            done[i].trials.push_back(TrialRow::from_report(reports[i]));
        }

        const std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t i = 0; i < group.size(); ++i) {
          const std::size_t index = group[i];
          const io::Status appended = writer.append(done[i]);
          if (!appended.ok()) {
            // The retries are spent; this point is computed but not
            // durable, so it is NOT completed — drop it (a resume reruns
            // it) and abort the sweep.
            if (append_failure.ok()) append_failure = appended;
            io_failed.store(true);
            return;
          }
          slots[index] = std::move(done[i]);
          if (options.on_point)
            options.on_point((*points)[index], *slots[index], false);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  const std::chrono::duration<double> elapsed =
      // determinism: allow(steady-clock) sweep wall_seconds diagnostic, stdout only
      std::chrono::steady_clock::now() - start;

  writer.close();

  // A persistent checkpoint-append failure aborted the pool. Everything
  // *recorded* is durable, so the checkpoint stays for --resume; the
  // error carries the io::Status taxonomy message (ENOSPC vs EIO).
  if (!append_failure.ok())
    return fail("sweep '" + spec.name + "': cannot write checkpoint '" +
                options.checkpoint_path + "': " + append_failure.message() +
                "; completed points are retained and --resume finishes the "
                "run once the disk recovers");

  // A cancelled run is not a finished run: keep the checkpoint (it holds
  // every completed point, each fsynced) and report the interruption so
  // callers never mistake a partial grid for a result.
  bool incomplete = false;
  for (std::size_t i = 0; i < slots.size(); ++i)
    if (owns(i) && !slots[i]) incomplete = true;
  if (incomplete) {
    EXPLFRAME_CHECK(options.cancel && options.cancel->load());
    return fail("sweep '" + spec.name +
                "' was cancelled before completing; completed points are "
                "retained in the checkpoint and --resume finishes the run");
  }

  // A completed shard keeps its checkpoint: the file is the shard's
  // output artifact, consumed by merge_checkpoints. Removal is cleanup,
  // not correctness — if it fails the leftover file merely resumes to a
  // no-op — so it gets the retry budget and no error path.
  if (!options.checkpoint_path.empty() && !sharded)
    (void)io::with_retry(io::kDefaultRetryAttempts, [&] {
      return fs.remove(options.checkpoint_path);
    });

  SweepResult result;
  result.spec = spec;
  result.points = std::move(*points);
  result.records.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    if (slots[i]) result.records.push_back(std::move(*slots[i]));
  result.resumed_points = resumed;
  result.wall_seconds = elapsed.count();
  result.shard_index = options.shard_index;
  result.shard_count = options.shard_count;
  EXPLFRAME_CHECK(sharded || result.complete());
  return result;
}

std::optional<SweepResult> merge_checkpoints(
    const SweepSpec& spec, const scenario::Registry& registry,
    const std::vector<std::string>& checkpoint_paths, std::string* error,
    io::FileSystem* fs_arg) {
  io::FileSystem& fs = fs_arg ? *fs_arg : io::real();
  const auto points = spec.expand(registry, error);
  if (!points) return std::nullopt;
  const std::uint64_t hash = spec.spec_hash(registry);

  const auto fail = [&](const std::string& what)
      -> std::optional<SweepResult> {
    set_error(error, what);
    return std::nullopt;
  };
  if (checkpoint_paths.empty())
    return fail("sweep '" + spec.name + "': no checkpoint files to merge");

  // One slot per expanded point; remember which file filled it so a
  // conflict names both sides.
  std::vector<std::optional<PointRecord>> slots(points->size());
  std::vector<std::string> sources(points->size());
  for (const std::string& path : checkpoint_paths) {
    // Unlike a resume (where "no checkpoint yet" means "nothing done"),
    // a merge operand the user named must exist — a typo that silently
    // contributed zero records would surface as a confusing
    // missing-points error far from its cause.
    if (!fs.exists(path))
      return fail("cannot read checkpoint '" + path + "'");
    const auto records =
        load_grid_records(path, spec, hash, *points, error, fs);
    if (!records) return std::nullopt;
    for (const PointRecord& record : *records) {
      auto& slot = slots[record.index];
      if (!slot) {
        slot = record;
        sources[record.index] = path;
        continue;
      }
      // Overlapping shardings are fine as long as they agree: identical
      // duplicates deduplicate, conflicting ones are corruption.
      if (*slot == record) continue;
      return fail("conflicting records for point " +
                  std::to_string(record.index) + " (" + record.id + "): '" +
                  sources[record.index] + "' and '" + path +
                  "' disagree — the checkpoints mix incompatible runs");
    }
  }

  std::string missing;
  std::size_t missing_count = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]) continue;
    ++missing_count;
    if (missing_count <= 8) {
      if (!missing.empty()) missing += ", ";
      missing += std::to_string(i) + " (" + (*points)[i].id + ")";
    }
  }
  if (missing_count > 8) missing += ", ...";
  if (missing_count > 0)
    return fail("merge of sweep '" + spec.name + "' is incomplete: " +
                std::to_string(missing_count) + " point(s) missing: " +
                missing + " — run the missing shard(s) or pass their "
                "checkpoints");

  SweepResult result;
  result.spec = spec;
  result.points = std::move(*points);
  result.records.reserve(slots.size());
  for (auto& slot : slots) result.records.push_back(std::move(*slot));
  result.resumed_points = result.records.size();
  return result;
}

}  // namespace explframe::sweep
