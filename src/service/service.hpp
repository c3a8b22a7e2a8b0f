// service::Service — the long-running job engine behind `explsimd`.
//
// A Service owns a spool directory, a JobQueue and a bounded worker pool,
// and turns one-line JobRequests into finished reports:
//
//   <spool>/queue/<id>.req        durable submissions (tmp + rename + fsync)
//   <spool>/checkpoints/<id>.ckpt sweep progress (SweepRunner's own format)
//   <spool>/done/<id>.md|.csv     completed-report cache
//   <spool>/failed/<id>.err       jobs that exhausted their retry budget
//
// Everything is keyed by the content-bound job id (service::job_id), which
// is also the dedupe key: concurrent submissions of the same experiment
// collapse to one execution, and a submission whose report already sits in
// done/ is served from the cache without running anything (`cached`).
// A Service resolves each (kind, name) to its id once (job_id re-derives
// the canonical `.scn`/`.sweep` text the id hashes) and answers later
// submits of that name from a memo, so a repeated in-process submit of a
// cached job costs one queue-state lookup, plus a done/ probe for a job
// this Service never ran. (`explsimd submit` runs job_id in its own
// process and never reaches the memo.)
//
// Durability: a submission is acknowledged only after its .req file is
// fsynced into queue/, so a daemon crash loses no accepted work — start()
// rescans queue/ and re-enqueues every pending request, and sweep jobs
// resume from their checkpoint instead of recomputing finished points.
// A worker crash (simulated in tests via `crash_for_test`) requeues the
// job until ServiceOptions::max_attempts is spent, then files it under
// failed/ with the reason — never a silent infinite retry.
//
// Shutdown: shutdown(kDrain) finishes every queued job first;
// shutdown(kCancel) raises the cancel flag SweepRunner checks between
// group steals, so an in-flight sweep stops at a point boundary, keeps
// its fsynced checkpoint, and goes back to queued — the next start()
// (or a resubmission) completes it byte-identically.
//
// Failure model: every spool write goes through io::FileSystem
// (ServiceOptions::fs — io::real() in production, io::FaultyFs from
// tests/io/faulty_fs.hpp in the torture suites) and reports through the
// io::Status taxonomy. Transient failures retry deterministically
// (attempt-counted, no clocks); a
// *permanent* spool-write failure (ENOSPC, EROFS) flips the service into
// degraded read-only mode: cached reports keep being served, new
// submissions are rejected with a structured "unavailable" error, and the
// mode is sticky until the operator fixes the disk and restarts (see
// docs/ARCHITECTURE.md "Failure model").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/fs.hpp"
#include "scenario/registry.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "sweep/registry.hpp"

namespace explframe::service {

/// How a Service runs; plain data with usable defaults.
struct ServiceOptions {
  /// Spool root; created (with subdirectories) by start().
  std::string spool_dir;
  /// Worker threads executing jobs (>= 1).
  std::uint32_t workers = 2;
  /// Executions one job may consume before it is filed under failed/
  /// (>= 1; crash-requeues stop at max_attempts - 1).
  std::uint32_t max_attempts = 2;
  /// Test seam: when set, called at the start of every execution attempt.
  /// Returning true makes the worker treat that attempt as a crash
  /// (requeue_or_fail) without running the job — how the integration
  /// tests exercise the retry cap deterministically.
  std::function<bool(const Job&)> crash_for_test;
  /// The filesystem every spool/report/checkpoint byte goes through
  /// (nullptr = io::real()). The torture suites substitute io::FaultyFs
  /// (tests/io/faulty_fs.hpp); production never sets this.
  io::FileSystem* fs = nullptr;
};

/// Why Service::submit returned nullopt — the structured half of the
/// error message, so `explsimd` can map failures to distinct exit codes.
enum class SubmitError {
  kNone,        ///< Submit succeeded.
  kBadRequest,  ///< Malformed line or unknown scenario/sweep name.
  kUnavailable, ///< Spool write failed or the service is degraded.
};

/// What Service::submit did with a request.
struct SubmitOutcome {
  std::string id;        ///< Content-bound job id.
  bool accepted = false;  ///< New work was enqueued.
  bool deduped = false;   ///< Identical job already queued/running.
  bool cached = false;    ///< Report already in done/; nothing to run.
};

/// The spool-backed job engine (see the file comment).
class Service {
 public:
  /// Binds the registries the daemon serves; nothing runs until start().
  /// Both registries must outlive the Service and must not change while
  /// it lives: workers read them concurrently, and each name's job id is
  /// resolved once and memoized, so a re-registered definition would keep
  /// its first id.
  Service(ServiceOptions options, const scenario::Registry& scenarios,
          const sweep::Registry& sweeps);
  /// Joins the workers (a cancel shutdown) if still running.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Create the spool layout, re-enqueue every queue/*.req survivor from
  /// a previous process, and launch the worker pool. False + `error` when
  /// the spool cannot be created or a survivor is corrupt.
  bool start(std::string* error = nullptr);

  /// Accept one request: resolve its id, serve from the done cache when
  /// possible, otherwise persist queue/<id>.req and enqueue. Nullopt +
  /// `error` when the named entry is unknown, the spool write fails, or
  /// the service is degraded; `why` (when non-null) carries the
  /// structured kind. Cached submissions succeed even in degraded mode —
  /// that is what "read-only" means.
  std::optional<SubmitOutcome> submit(const JobRequest& request,
                                      std::string* error = nullptr,
                                      SubmitError* why = nullptr);
  /// Parse `line` and submit it; protocol errors surface in `error`.
  std::optional<SubmitOutcome> submit_line(const std::string& line,
                                           std::string* error = nullptr,
                                           SubmitError* why = nullptr);

  /// How shutdown treats in-flight and queued work.
  enum class Shutdown {
    kDrain,   ///< Finish every queued job, then stop the workers.
    kCancel,  ///< Stop at the next point boundary; leave resumable state.
  };
  /// Stop the worker pool per `mode`. Idempotent.
  void shutdown(Shutdown mode);
  /// True once a cancel shutdown has begun — the flag in-flight sweeps
  /// poll between point groups (exposed as the tests' handshake for
  /// "stopping now would be observed").
  bool cancel_requested() const noexcept { return cancel_.load(); }

  /// Block until nothing is queued or running (the --once serve mode).
  void drain() const;

  // ---- Introspection ----

  /// The tracked job under `id`, if any.
  std::optional<Job> status(const std::string& id) const;
  /// Every tracked job, in submission order.
  std::vector<Job> jobs() const;
  /// The cached report's bytes (ext is "md" or "csv"); nullopt when the
  /// job has not completed.
  std::optional<std::string> report(const std::string& id,
                                    const std::string& ext) const;
  /// Executions actually started (attempts, not submissions) — what the
  /// dedupe tests count.
  std::uint64_t executions() const noexcept;
  /// True once a permanent spool-write failure flipped the service into
  /// degraded read-only mode (cached reports only; submissions rejected).
  bool degraded() const noexcept { return degraded_.load(); }
  /// The io::Status message of the failure that caused degraded mode
  /// (empty while healthy).
  std::string degraded_reason() const;

  /// Spool paths, exposed so tests and `explsimd` agree on the layout.
  std::string queue_path(const std::string& id) const;
  std::string checkpoint_path(const std::string& id) const;
  std::string done_path(const std::string& id, const std::string& ext) const;
  std::string failed_path(const std::string& id) const;

 private:
  void worker_loop();
  /// Run one claimed job to a queue verdict (complete/fail/requeue/release).
  void execute(const Job& job);
  bool run_scenario_job(const Job& job, std::string* error);
  bool run_sweep_job(const Job& job, bool* cancelled, std::string* error);
  /// Write both report files (csv first, then md — the commit record) and
  /// retire the .req file.
  bool finish(const Job& job, const std::string& md, const std::string& csv,
              std::string* error);
  /// The injectable filesystem (ServiceOptions::fs or io::real()).
  io::FileSystem& fs() const;
  /// Record a permanent spool failure and flip into degraded mode.
  void enter_degraded(const std::string& reason);
  /// Durably file failed/<id>.err and retire the .req (best effort).
  void record_failure(const std::string& id, const std::string& reason);
  /// service::job_id, memoized per (kind, name): the first success is
  /// stored, failures are not (an unknown name stays an error each time).
  std::optional<std::string> resolve_id(const JobRequest& request,
                                        std::string* error);

  const ServiceOptions options_;
  const scenario::Registry& scenarios_;
  const sweep::Registry& sweeps_;
  JobQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> cancel_{false};   ///< SweepRunner's cancel seam.
  std::atomic<bool> running_{false};  ///< start() .. shutdown().
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<bool> degraded_{false};  ///< Sticky read-only mode.
  mutable std::mutex degraded_mutex_;  ///< Guards degraded_reason_.
  std::string degraded_reason_;
  std::mutex ids_mutex_;  ///< Guards ids_.
  /// resolve_id's memo: (kind, name) -> job id.
  std::map<std::pair<JobKind, std::string>, std::string> ids_;
};

}  // namespace explframe::service
