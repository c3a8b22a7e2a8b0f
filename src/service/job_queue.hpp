// service::JobQueue — the deduplicating, crash-tolerant work queue at the
// heart of `explsimd`.
//
// The queue owns job *lifecycle*, not job *execution*: Service's workers
// claim() jobs, run them, and report back with complete(), fail(),
// requeue_or_fail() (a crashed attempt) or release() (a graceful stop —
// the job goes back unharmed). All state transitions happen under one
// mutex and every waiter is condition-variable driven, so the queue is
// safe at any worker count (the TSan CI leg runs the service tests).
//
// Dedupe contract: jobs are keyed by the content-bound id from
// service::job_id(). Submitting an id that is already queued or running
// is acknowledged but adds nothing (`deduped`); a done id is served from
// the completed-report cache one layer up (`cached`, decided by Service
// before the queue is involved). A failed id may be resubmitted — the
// failure is cleared and the job runs again from its checkpoint.
//
// Crash contract: a claim increments `attempts`. requeue_or_fail() puts
// the job back at most `max_attempts - 1` times (counted in `requeues`);
// past the cap the job is kFailed with the crash reason, never retried
// silently forever.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/protocol.hpp"

namespace explframe::service {

/// One submission's position in its lifecycle.
enum class JobState {
  kQueued,   ///< Waiting for a worker.
  kRunning,  ///< Claimed by a worker.
  kDone,     ///< Report written to the done cache.
  kFailed,   ///< Gave up (error message in Job::error).
};

/// Canonical name ("queued" | "running" | "done" | "failed").
const char* to_string(JobState state) noexcept;

/// One job as the queue tracks it; plain data, safe to copy out.
struct Job {
  std::string id;          ///< Content-bound id (service::job_id).
  JobRequest request;      ///< The submission that created it.
  JobState state = JobState::kQueued;
  std::uint32_t attempts = 0;  ///< Execution attempts started.
  std::uint32_t requeues = 0;  ///< Crash-requeues performed.
  std::string error;           ///< Failure reason when kFailed.
};

/// The thread-safe lifecycle store (see the file comment).
class JobQueue {
 public:
  /// `max_attempts` caps executions of one job (>= 1): a job that
  /// crashes on its max_attempts-th claim fails instead of requeueing.
  explicit JobQueue(std::uint32_t max_attempts);

  /// What submit() did with an id.
  struct Submitted {
    bool enqueued = false;  ///< New work was added.
    bool deduped = false;   ///< Already queued/running/done: nothing added.
  };

  /// Register `request` under `id`. Queued/running/done ids dedupe;
  /// failed ids are cleared and re-enqueued (an explicit retry).
  Submitted submit(const std::string& id, const JobRequest& request);

  /// Block until a queued job exists (claim it, mark it running, bump
  /// `attempts`) or stop() is called (nullopt). FIFO order.
  std::optional<Job> claim();

  /// The claimed job finished; its report is in the done cache.
  void complete(const std::string& id);

  /// The claimed job's attempt crashed. Requeue it unless the attempt
  /// cap is reached, in which case it becomes kFailed with `reason`.
  /// Returns true when the job was requeued.
  bool requeue_or_fail(const std::string& id, const std::string& reason);

  /// The claimed job hit a deterministic error (bad spec, unwritable
  /// spool): kFailed immediately, no retry.
  void fail(const std::string& id, const std::string& reason);

  /// A graceful stop interrupted the claimed job mid-run: put it back as
  /// queued with the attempt un-counted (stopping a daemon is not a
  /// crash; the job resumes from its checkpoint).
  void release(const std::string& id);

  /// Wake every claim()er empty-handed and refuse further claims (used
  /// at shutdown; submit() still records, so a drain can finish first).
  void stop();

  // ---- Introspection (copies, safe outside the lock) ----

  /// The job tracked under `id`, if any.
  std::optional<Job> find(const std::string& id) const;
  /// The state of the job tracked under `id`, if any — find() without
  /// copying the Job (what Service::submit asks on every submission).
  std::optional<JobState> state(const std::string& id) const;
  /// Every tracked job, in submission order.
  std::vector<Job> jobs() const;
  /// Block until nothing is queued or running (or stop()).
  void wait_idle() const;

 private:
  Job& tracked(const std::string& id);

  const std::uint32_t max_attempts_;
  mutable std::mutex mutex_;
  mutable std::condition_variable work_cv_;     ///< claim() waiters.
  mutable std::condition_variable idle_cv_;     ///< wait_idle() waiters.
  std::unordered_map<std::string, Job> jobs_;  ///< All tracked jobs by id.
  std::vector<std::string> order_;             ///< Submission order of ids.
  std::deque<std::string> queue_;              ///< Queued ids, FIFO.
  bool stopped_ = false;
};

}  // namespace explframe::service
