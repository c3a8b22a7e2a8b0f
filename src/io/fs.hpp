// io::FileSystem — the fault-injectable seam every durable path goes
// through.
//
// All file I/O that the recovery story depends on — the `explsimd` spool
// (queue/done/failed submissions and reports), the sweep checkpoint, the
// report/golden emitters and `.scn`/`.sweep` file loads — is routed
// through this small virtual interface instead of touching stdio or
// std::filesystem directly. Production code uses the passthrough
// `io::real()`; tests substitute `io::FaultyFs` (tests/io/faulty_fs.hpp),
// which executes a scripted failure plan: fail the Nth write/fsync/rename,
// short writes, ENOSPC after a byte budget, EIO on reads, and named
// "crash points" that abandon the process state mid-operation. That is
// what makes the crash-consistency claims in docs/ARCHITECTURE.md
// *testable*: the torture suites (tests/torture/) enumerate every
// operation index and every crash point and assert the recovery
// invariant at each one.
//
// Error taxonomy (io::Status): every operation reports `ok`, `transient`
// (worth retrying: EINTR/EAGAIN/EIO-class flakes), `permanent` (retry
// cannot help: ENOSPC, EROFS, EACCES) or `not found` (a permanent error
// callers often treat as "empty"). Retries are *deterministic and
// bounded* — io::with_retry counts attempts, never sleeps and never reads
// a clock, so fault-injected runs replay bit-identically (the determinism
// lint bans wall-clock backoff outright).
//
// Durability vocabulary: File::sync() is the only durability barrier.
// io::durable_write publishes whole files with the tmp + write + sync +
// rename discipline (a crash leaves the old bytes or the new bytes, never
// a torn mix, and a failed attempt never strands its tmp file); the sweep
// CheckpointWriter appends line-at-a-time with a sync per record.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace explframe::io {

/// How an operation failed, if it did. kNotFound is permanent but kept
/// distinct because several callers legitimately map it to "empty"
/// (a missing checkpoint is an empty checkpoint).
enum class ErrorKind { kOk, kTransient, kPermanent, kNotFound };

/// One operation's outcome: a taxonomy kind plus a human-readable message
/// (empty iff ok). Plain value type, cheap to copy.
class Status {
 public:
  /// Success.
  Status() = default;
  /// Success (named, for symmetry with the error factories).
  static Status ok_status() { return Status(); }
  /// A retryable failure (flaky media, interrupted call).
  static Status transient_error(std::string message);
  /// A failure retrying cannot fix (disk full, permissions, read-only fs).
  static Status permanent_error(std::string message);
  /// The path does not exist.
  static Status not_found(std::string message);
  /// Map a POSIX errno to the taxonomy; `context` prefixes the message.
  static Status from_errno(int err, const std::string& context);

  bool ok() const noexcept { return kind_ == ErrorKind::kOk; }
  bool transient() const noexcept { return kind_ == ErrorKind::kTransient; }
  /// True for both kPermanent and kNotFound (neither is worth a retry).
  bool permanent() const noexcept {
    return kind_ == ErrorKind::kPermanent || kind_ == ErrorKind::kNotFound;
  }
  bool is_not_found() const noexcept { return kind_ == ErrorKind::kNotFound; }
  ErrorKind kind() const noexcept { return kind_; }
  const std::string& message() const noexcept { return message_; }

 private:
  Status(ErrorKind kind, std::string message)
      : kind_(kind), message_(std::move(message)) {}

  ErrorKind kind_ = ErrorKind::kOk;
  std::string message_;
};

/// How open() positions an opened file.
enum class OpenMode {
  kTruncate,  ///< Create or truncate; writes start at offset 0.
  kAppend,    ///< Create if missing; writes go to the end.
};

/// An open file handle. write() buffers or persists bytes; sync() is the
/// durability barrier (bytes are crash-safe only after a successful
/// sync); close() releases the handle (idempotent — later calls are ok).
/// The destructor closes best-effort; durable paths must call close()
/// and check it.
class File {
 public:
  virtual ~File() = default;
  /// Append `bytes` at the current position. All-or-error at this seam:
  /// a short write surfaces as a failure (partial bytes may still have
  /// reached the file — callers recover via their torn-tail handling).
  virtual Status write(const std::string& bytes) = 0;
  /// Flush and fsync: on success every preceding write is durable.
  virtual Status sync() = 0;
  /// Close the handle (flushes buffered bytes, without the durability
  /// guarantee of sync()). Idempotent.
  virtual Status close() = 0;
};

/// The injectable filesystem interface (see the file comment). All paths
/// are plain strings; implementations are thread-safe.
class FileSystem {
 public:
  virtual ~FileSystem() = default;
  /// Open `path` per `mode` into `*out`. `*out` is set only on success.
  virtual Status open(const std::string& path, OpenMode mode,
                      std::unique_ptr<File>* out) = 0;
  /// Read the whole file into `*out` (replaced only on success). A
  /// missing file is kNotFound.
  virtual Status read_file(const std::string& path, std::string* out) = 0;
  /// Atomically rename `from` onto `to` (the publish step of
  /// durable_write).
  virtual Status rename(const std::string& from, const std::string& to) = 0;
  /// Remove `path`. A missing file is OK (remove is used for cleanup and
  /// retirement, where "already gone" is the goal state).
  virtual Status remove(const std::string& path) = 0;
  /// The names (not paths) of regular files directly under `dir`, sorted.
  virtual Status list(const std::string& dir,
                      std::vector<std::string>* names) = 0;
  /// Truncate `path` to `size` bytes (torn-tail repair on checkpoints).
  virtual Status truncate(const std::string& path, std::uint64_t size) = 0;
  /// Create `path` and any missing parents.
  virtual Status create_directories(const std::string& path) = 0;
  /// True when `path` exists (advisory — a cache-probe, never a lock).
  virtual bool exists(const std::string& path) const = 0;
  /// A named crash point: a no-op in production, but FaultyFs can be
  /// armed to "crash the process" exactly here — every operation after
  /// it fails and un-synced bytes are lost. Names must come from
  /// crash_point_names() so the torture harness can enumerate them.
  virtual void crash_point(const std::string& name);
};

/// The passthrough production filesystem (stdio + POSIX fsync +
/// std::filesystem), shared and stateless.
FileSystem& real();

/// Every named crash point compiled into the durable paths, in pipeline
/// order. The torture harness iterates this list and asserts the recovery
/// invariant at each point; FaultyFs records which names a run visited so
/// the list can never silently go stale.
const std::vector<std::string>& crash_point_names();

/// Default bounded-retry budget for transient errors (attempt count —
/// deterministic, no clocks, no sleeping).
inline constexpr std::uint32_t kDefaultRetryAttempts = 3;

/// Run `op` up to `attempts` times (>= 1), stopping on success or on the
/// first non-transient failure. Returns the last status. The retry is a
/// plain counter loop: no backoff, no clock — byte-identical replays.
Status with_retry(std::uint32_t attempts, const std::function<Status()>& op);

/// Write `content` to `path` via open/write/close (no durability
/// guarantee — the golden-report emitters' write, where the git diff is
/// the real safety net).
Status write_file(FileSystem& fs, const std::string& path,
                  const std::string& content);

/// Publish `content` at `path` durably: unique tmp file, write + sync,
/// then an atomic rename. A crash leaves the old file or the new one,
/// never a torn mix. A failed attempt removes its tmp file (never strands
/// it), and transient failures are retried up to `attempts` times.
Status durable_write(FileSystem& fs, const std::string& path,
                     const std::string& content,
                     std::uint32_t attempts = kDefaultRetryAttempts);

}  // namespace explframe::io
