#include "service/job_queue.hpp"

#include "support/check.hpp"

namespace explframe::service {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "queued";
}

JobQueue::JobQueue(std::uint32_t max_attempts)
    : max_attempts_(max_attempts == 0 ? 1 : max_attempts) {}

Job& JobQueue::tracked(const std::string& id) {
  const auto it = jobs_.find(id);
  EXPLFRAME_CHECK(it != jobs_.end());
  return it->second;
}

JobQueue::Submitted JobQueue::submit(const std::string& id,
                                     const JobRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  Submitted outcome;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    Job job;
    job.id = id;
    job.request = request;
    jobs_.emplace(id, std::move(job));
    order_.push_back(id);
    queue_.push_back(id);
    outcome.enqueued = true;
    work_cv_.notify_one();
    return outcome;
  }
  Job& job = it->second;
  if (job.state == JobState::kFailed) {
    // An explicit resubmission of a failed job is a retry: clear the
    // verdict and start counting attempts afresh.
    job.state = JobState::kQueued;
    job.attempts = 0;
    job.requeues = 0;
    job.error.clear();
    queue_.push_back(id);
    outcome.enqueued = true;
    work_cv_.notify_one();
    return outcome;
  }
  outcome.deduped = true;
  return outcome;
}

std::optional<Job> JobQueue::claim() {
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait(lock, [&] { return stopped_ || !queue_.empty(); });
  if (stopped_) return std::nullopt;
  const std::string id = queue_.front();
  queue_.pop_front();
  Job& job = tracked(id);
  EXPLFRAME_CHECK(job.state == JobState::kQueued);
  job.state = JobState::kRunning;
  job.attempts += 1;
  return job;
}

void JobQueue::complete(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = tracked(id);
  EXPLFRAME_CHECK(job.state == JobState::kRunning);
  job.state = JobState::kDone;
  idle_cv_.notify_all();
}

bool JobQueue::requeue_or_fail(const std::string& id,
                               const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = tracked(id);
  EXPLFRAME_CHECK(job.state == JobState::kRunning);
  if (job.attempts < max_attempts_) {
    job.state = JobState::kQueued;
    job.requeues += 1;
    queue_.push_back(id);
    work_cv_.notify_one();
    return true;
  }
  job.state = JobState::kFailed;
  job.error = reason + " (gave up after " + std::to_string(job.attempts) +
              " attempt(s))";
  idle_cv_.notify_all();
  return false;
}

void JobQueue::fail(const std::string& id, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = tracked(id);
  EXPLFRAME_CHECK(job.state == JobState::kRunning);
  job.state = JobState::kFailed;
  job.error = reason;
  idle_cv_.notify_all();
}

void JobQueue::release(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job& job = tracked(id);
  EXPLFRAME_CHECK(job.state == JobState::kRunning);
  job.state = JobState::kQueued;
  // Not a crash: the attempt never ran to a verdict, so it does not
  // count against the retry cap.
  EXPLFRAME_CHECK(job.attempts > 0);
  job.attempts -= 1;
  queue_.push_back(id);
  work_cv_.notify_one();
  idle_cv_.notify_all();
}

void JobQueue::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

std::optional<Job> JobQueue::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::optional<JobState> JobQueue::state(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.state;
}

std::vector<Job> JobQueue::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Job> out;
  out.reserve(order_.size());
  for (const std::string& id : order_) out.push_back(jobs_.at(id));
  return out;
}

void JobQueue::wait_idle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    if (stopped_) return true;
    if (!queue_.empty()) return false;
    for (const auto& [id, job] : jobs_)
      if (job.state == JobState::kRunning) return false;
    return true;
  });
}

}  // namespace explframe::service
