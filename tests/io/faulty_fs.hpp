// io::FaultyFs — a scripted fault-injecting FileSystem for the torture
// suites (tests/torture/) and its own unit suite. Test-only and
// header-only: production code reaches io::FileSystem through io::real().
//
// FaultyFs wraps a base filesystem (normally io::real()) and executes a
// deterministic failure plan on top of it:
//
//   fail_nth / fail_from    fail the Nth (or every >= Nth) operation of a
//                           kind with a chosen Status — "the 3rd fsync
//                           returns EIO", "every rename fails ENOSPC";
//   short_write_nth         the Nth write persists only a prefix before
//                           failing (the POSIX short-write case);
//   set_capacity            ENOSPC once the cumulative bytes written
//                           through the filesystem exceed a budget —
//                           partial bytes that fit are kept, modelling a
//                           disk that fills mid-file;
//   crash_at_op /           abandon the process state mid-operation: the
//   crash_at_point          op (or the named io::crash_point) has at most
//                           a partial effect, every *later* operation
//                           fails, and all bytes written but never
//                           sync()ed are DROPPED — the page-cache loss a
//                           real crash inflicts.
//
// Durability model: writes buffer in memory; File::sync() flushes the
// buffer to the base filesystem and fsyncs it (durable); a clean
// File::close() flushes without the durability guarantee (visible, and
// kept here since the process did not crash). A crash at a sync flushes
// only HALF of the pending bytes — the torn write the checkpoint format's
// torn-tail tolerance exists for.
//
// Every operation is recorded in an in-order trace, so a torture harness
// first runs a counting pass (no faults), then re-runs the pipeline once
// per recorded operation index with a crash or error injected there —
// enumerating every failure point instead of sampling a few.
//
// Thread-safe (the Service worker pool runs through it under TSan);
// deterministic (no clocks, no randomness — the plan is the only input).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/fs.hpp"

namespace explframe::io {

/// The operation vocabulary FaultyFs scripts against (and records in its
/// trace). One enumerator per FileSystem/File entry point that can fail.
enum class Op {
  kOpen,
  kWrite,
  kSync,
  kClose,
  kRead,
  kRename,
  kRemove,
  kList,
  kTruncate,
  kMkdir,
};

/// Canonical lower-case name ("open", "write", ...), for trace logs.
inline const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kWrite: return "write";
    case Op::kSync: return "sync";
    case Op::kClose: return "close";
    case Op::kRead: return "read";
    case Op::kRename: return "rename";
    case Op::kRemove: return "remove";
    case Op::kList: return "list";
    case Op::kTruncate: return "truncate";
    case Op::kMkdir: return "mkdir";
  }
  return "?";
}

/// The scripted fault-injecting filesystem (see the file comment).
class FaultyFs final : public FileSystem {
 public:
  /// One recorded operation: its kind and primary path, in global order.
  struct OpRecord {
    Op op = Op::kOpen;
    std::string path;

    /// "write#3 foo/bar.req" — the name torture trace logs print.
    std::string describe(std::uint64_t index) const;
  };

  /// Wraps `base` (which outlives this object); no faults armed.
  explicit FaultyFs(FileSystem& base) : base_(base) {}

  // ---- Scripting -----------------------------------------------------------

  /// Fail the `nth` (0-based, per-kind) operation of kind `op` with
  /// `status`, once.
  void fail_nth(Op op, std::uint64_t nth, Status status);
  /// Fail every operation of kind `op` from the `nth` on with `status`
  /// (a persistently broken disk).
  void fail_from(Op op, std::uint64_t nth, Status status);
  /// The `nth` write persists only `keep_bytes` of its payload, then
  /// fails with `status` (a short write).
  void short_write_nth(std::uint64_t nth, std::size_t keep_bytes,
                       Status status);
  /// ENOSPC once cumulative bytes written exceed `bytes`; what fits is
  /// kept. Pass nullopt to lift the limit.
  void set_capacity(std::optional<std::uint64_t> bytes);
  /// Simulate a process crash at global operation index `index` (0-based
  /// over all kinds, the trace order of a counting pass). If `index` has
  /// already passed, the crash fires at the next operation instead —
  /// arming never silently does nothing.
  void crash_at_op(std::uint64_t index);
  /// Simulate a process crash at the named io::crash_point.
  void crash_at_point(std::string name);
  /// Forget the plan, counters, trace and crash state. Files written to
  /// the base filesystem stay — this is "replace the disk", not "wipe it".
  void reset();

  // ---- Introspection -------------------------------------------------------

  /// Every operation observed since construction/reset, in order.
  std::vector<OpRecord> trace() const;
  /// Total operations observed (the exclusive bound for crash_at_op).
  std::uint64_t op_count() const;
  /// Crash-point names visited, in first-visit order (the torture
  /// harness asserts its pipeline covers the registered list).
  std::vector<std::string> visited_points() const;
  /// True once a scripted crash has triggered.
  bool crashed() const;

  // ---- FileSystem ----------------------------------------------------------

  /// All operations honour the plan; after a crash they all fail and
  /// have no effect. See the file comment for the durability model.
  Status open(const std::string& path, OpenMode mode,
              std::unique_ptr<File>* out) override;
  Status read_file(const std::string& path, std::string* out) override;
  Status rename(const std::string& from, const std::string& to) override;
  Status remove(const std::string& path) override;
  Status list(const std::string& dir,
              std::vector<std::string>* names) override;
  Status truncate(const std::string& path, std::uint64_t size) override;
  Status create_directories(const std::string& path) override;
  bool exists(const std::string& path) const override;
  void crash_point(const std::string& name) override;

 private:
  friend class FaultyFile;  ///< The buffering File handle (below).

  /// One scripted failure.
  struct Fault {
    Op op = Op::kOpen;
    std::uint64_t nth = 0;
    bool sticky = false;        ///< fail_from (>= nth) vs fail_nth (== nth).
    bool fired = false;         ///< One-shot faults fire once.
    Status status;
    std::optional<std::size_t> short_keep;  ///< Short write: bytes kept.
  };

  /// What note() decided to do to the operation it just recorded.
  struct Injection {
    /// Let it through, fail it with `status`, or crash the "process".
    enum class Kind { kNone, kFail, kCrash } kind = Kind::kNone;
    Status status;                          ///< The error, when not kNone.
    std::optional<std::size_t> short_keep;  ///< Short write: bytes kept.
  };

  /// Record the operation in the trace, advance the counters, and decide
  /// whether to let it through, fail it, or crash (takes the lock).
  Injection note(Op op, const std::string& path);
  /// The "everything fails after the crash" status.
  static Status crashed_status();
  /// Charge `bytes` against the capacity budget (takes the lock);
  /// returns how many fit.
  std::size_t charge_capacity(std::size_t bytes);

  FileSystem& base_;
  mutable std::mutex mutex_;
  std::vector<Fault> faults_;
  std::vector<OpRecord> trace_;
  std::vector<std::string> visited_points_;
  std::map<Op, std::uint64_t> per_op_count_;
  std::optional<std::uint64_t> capacity_;
  std::uint64_t written_bytes_ = 0;
  std::optional<std::uint64_t> crash_op_;
  std::optional<std::string> crash_point_name_;
  bool crashed_ = false;
};

/// A buffering handle over a base File (FaultyFs befriends it so it may
/// drive note()/charge_capacity()). Writes accumulate in memory;
/// sync() flushes + fsyncs them to the base (durable); a clean close()
/// flushes without the durability guarantee; a crash drops everything
/// still buffered — the page-cache loss model the file comment
/// describes.
class FaultyFile final : public File {
 public:
  FaultyFile(FaultyFs& fs, std::string path, std::unique_ptr<File> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  ~FaultyFile() override {
    if (!closed_) (void)close();
  }

  Status write(const std::string& bytes) override {
    const FaultyFs::Injection what = fs_.note(Op::kWrite, path_);
    if (what.kind == FaultyFs::Injection::Kind::kCrash) {
      // Crash mid-write: nothing from this write survives (it was never
      // synced), and everything still pending is lost with the process.
      pending_.clear();
      return what.status;
    }
    if (what.kind == FaultyFs::Injection::Kind::kFail) {
      if (what.short_keep) {
        const std::size_t keep = std::min(*what.short_keep, bytes.size());
        pending_.append(bytes, 0, fs_.charge_capacity(keep));
      }
      return what.status;
    }
    const std::size_t fit = fs_.charge_capacity(bytes.size());
    pending_.append(bytes, 0, fit);
    if (fit < bytes.size())
      return Status::permanent_error("short write to '" + path_ +
                                     "' (ENOSPC)");
    return Status::ok_status();
  }

  Status sync() override {
    const FaultyFs::Injection what = fs_.note(Op::kSync, path_);
    if (what.kind == FaultyFs::Injection::Kind::kCrash) {
      // Crash mid-sync: the torn-write case. Half of the pending bytes
      // reach the disk, the rest die with the process.
      (void)base_->write(pending_.substr(0, pending_.size() / 2));
      pending_.clear();
      return what.status;
    }
    if (what.kind == FaultyFs::Injection::Kind::kFail) return what.status;
    Status status = flush();
    if (status.ok()) status = base_->sync();
    return status;
  }

  Status close() override {
    if (closed_) return Status::ok_status();
    closed_ = true;
    const FaultyFs::Injection what = fs_.note(Op::kClose, path_);
    if (what.kind == FaultyFs::Injection::Kind::kCrash) {
      pending_.clear();
      (void)base_->close();
      return what.status;
    }
    if (what.kind == FaultyFs::Injection::Kind::kFail) {
      // A failed close loses what was never flushed, like the real thing.
      pending_.clear();
      (void)base_->close();
      return what.status;
    }
    Status status = flush();
    const Status closed = base_->close();
    return status.ok() ? closed : status;
  }

 private:
  /// Move the pending buffer into the base file (no fsync).
  Status flush() {
    if (pending_.empty()) return Status::ok_status();
    const Status status = base_->write(pending_);
    if (status.ok()) pending_.clear();
    return status;
  }

  FaultyFs& fs_;
  const std::string path_;
  std::unique_ptr<File> base_;
  std::string pending_;
  bool closed_ = false;
};

inline std::string FaultyFs::OpRecord::describe(std::uint64_t index) const {
  return std::string(to_string(op)) + "@op#" + std::to_string(index) + " " +
         path;
}

inline void FaultyFs::fail_nth(Op op, std::uint64_t nth, Status status) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Fault fault;
  fault.op = op;
  fault.nth = nth;
  fault.status = std::move(status);
  faults_.push_back(std::move(fault));
}

inline void FaultyFs::fail_from(Op op, std::uint64_t nth, Status status) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Fault fault;
  fault.op = op;
  fault.nth = nth;
  fault.sticky = true;
  fault.status = std::move(status);
  faults_.push_back(std::move(fault));
}

inline void FaultyFs::short_write_nth(std::uint64_t nth,
                                      std::size_t keep_bytes, Status status) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Fault fault;
  fault.op = Op::kWrite;
  fault.nth = nth;
  fault.status = std::move(status);
  fault.short_keep = keep_bytes;
  faults_.push_back(std::move(fault));
}

inline void FaultyFs::set_capacity(std::optional<std::uint64_t> bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = bytes;
  written_bytes_ = 0;
}

inline void FaultyFs::crash_at_op(std::uint64_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  crash_op_ = index;
}

inline void FaultyFs::crash_at_point(std::string name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  crash_point_name_ = std::move(name);
}

inline void FaultyFs::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  faults_.clear();
  trace_.clear();
  visited_points_.clear();
  per_op_count_.clear();
  capacity_.reset();
  written_bytes_ = 0;
  crash_op_.reset();
  crash_point_name_.reset();
  crashed_ = false;
}

inline std::vector<FaultyFs::OpRecord> FaultyFs::trace() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trace_;
}

inline std::uint64_t FaultyFs::op_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trace_.size();
}

inline std::vector<std::string> FaultyFs::visited_points() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return visited_points_;
}

inline bool FaultyFs::crashed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return crashed_;
}

inline Status FaultyFs::crashed_status() {
  return Status::permanent_error("simulated process crash");
}

inline FaultyFs::Injection FaultyFs::note(Op op, const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t global = trace_.size();
  OpRecord record;
  record.op = op;
  record.path = path;
  trace_.push_back(std::move(record));
  const std::uint64_t nth = per_op_count_[op]++;

  Injection out;
  if (crashed_) {
    out.kind = Injection::Kind::kCrash;
    out.status = crashed_status();
    return out;
  }
  if (crash_op_ && global >= *crash_op_) {
    crashed_ = true;
    out.kind = Injection::Kind::kCrash;
    out.status = crashed_status();
    return out;
  }
  for (Fault& fault : faults_) {
    if (fault.op != op) continue;
    const bool hit = fault.sticky ? nth >= fault.nth
                                  : (nth == fault.nth && !fault.fired);
    if (!hit) continue;
    fault.fired = true;
    out.kind = Injection::Kind::kFail;
    out.status = fault.status;
    out.short_keep = fault.short_keep;
    return out;
  }
  return out;
}

inline std::size_t FaultyFs::charge_capacity(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!capacity_) return bytes;
  const std::uint64_t room =
      written_bytes_ >= *capacity_ ? 0 : *capacity_ - written_bytes_;
  const std::size_t fit =
      static_cast<std::size_t>(std::min<std::uint64_t>(room, bytes));
  written_bytes_ += fit;
  return fit;
}

inline Status FaultyFs::open(const std::string& path, OpenMode mode,
                             std::unique_ptr<File>* out) {
  const Injection what = note(Op::kOpen, path);
  if (what.kind != Injection::Kind::kNone) return what.status;
  std::unique_ptr<File> base_file;
  const Status status = base_.open(path, mode, &base_file);
  if (!status.ok()) return status;
  *out = std::make_unique<FaultyFile>(*this, path, std::move(base_file));
  return Status::ok_status();
}

inline Status FaultyFs::read_file(const std::string& path, std::string* out) {
  const Injection what = note(Op::kRead, path);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.read_file(path, out);
}

inline Status FaultyFs::rename(const std::string& from, const std::string& to) {
  const Injection what = note(Op::kRename, from);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.rename(from, to);
}

inline Status FaultyFs::remove(const std::string& path) {
  const Injection what = note(Op::kRemove, path);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.remove(path);
}

inline Status FaultyFs::list(const std::string& dir,
                             std::vector<std::string>* names) {
  const Injection what = note(Op::kList, dir);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.list(dir, names);
}

inline Status FaultyFs::truncate(const std::string& path, std::uint64_t size) {
  const Injection what = note(Op::kTruncate, path);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.truncate(path, size);
}

inline Status FaultyFs::create_directories(const std::string& path) {
  const Injection what = note(Op::kMkdir, path);
  if (what.kind != Injection::Kind::kNone) return what.status;
  return base_.create_directories(path);
}

inline bool FaultyFs::exists(const std::string& path) const {
  // Advisory probe: recorded nowhere, never scripted — the crash model
  // only cares about operations with effects or payloads.
  return base_.exists(path);
}

inline void FaultyFs::crash_point(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (std::find(visited_points_.begin(), visited_points_.end(), name) ==
      visited_points_.end())
    visited_points_.push_back(name);
  if (crash_point_name_ && *crash_point_name_ == name) crashed_ = true;
}

}  // namespace explframe::io
