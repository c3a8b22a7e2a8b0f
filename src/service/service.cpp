#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "scenario/report.hpp"
#include "support/check.hpp"
#include "support/text.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace explframe::service {

namespace {

/// True for the "<name>.tmp<N>" debris an interrupted durable_write can
/// leave behind (its cleanup is best effort; a crash mid-publish is not).
bool is_tmp_debris(const std::string& name) {
  return name.find(".tmp") != std::string::npos;
}

}  // namespace

Service::Service(ServiceOptions options, const scenario::Registry& scenarios,
                 const sweep::Registry& sweeps)
    : options_(std::move(options)),
      scenarios_(scenarios),
      sweeps_(sweeps),
      queue_(options_.max_attempts) {}

Service::~Service() { shutdown(Shutdown::kCancel); }

io::FileSystem& Service::fs() const {
  return options_.fs ? *options_.fs : io::real();
}

std::string Service::queue_path(const std::string& id) const {
  return options_.spool_dir + "/queue/" + id + ".req";
}

std::string Service::checkpoint_path(const std::string& id) const {
  return options_.spool_dir + "/checkpoints/" + id + ".ckpt";
}

std::string Service::done_path(const std::string& id,
                               const std::string& ext) const {
  return options_.spool_dir + "/done/" + id + "." + ext;
}

std::string Service::failed_path(const std::string& id) const {
  return options_.spool_dir + "/failed/" + id + ".err";
}

std::string Service::degraded_reason() const {
  const std::lock_guard<std::mutex> lock(degraded_mutex_);
  return degraded_reason_;
}

void Service::enter_degraded(const std::string& reason) {
  const std::lock_guard<std::mutex> lock(degraded_mutex_);
  if (degraded_.exchange(true)) return;  // First failure wins.
  degraded_reason_ = reason;
}

std::optional<std::string> Service::resolve_id(const JobRequest& request,
                                               std::string* error) {
  auto key = std::make_pair(request.kind, request.name);
  {
    const std::lock_guard<std::mutex> lock(ids_mutex_);
    const auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  // Derived outside the lock: racing first lookups of one name compute
  // the same id, and the first to store it wins.
  auto id = job_id(request, scenarios_, sweeps_, error);
  if (id) {
    const std::lock_guard<std::mutex> lock(ids_mutex_);
    ids_.emplace(std::move(key), *id);
  }
  return id;
}

bool Service::start(std::string* error) {
  EXPLFRAME_CHECK(!running_.load());
  for (const char* sub : {"queue", "checkpoints", "done", "failed"}) {
    const std::string dir = options_.spool_dir + "/" + sub;
    const io::Status made = io::with_retry(
        io::kDefaultRetryAttempts, [&] { return fs().create_directories(dir); });
    if (!made.ok())
      return set_error(error, "cannot create spool directory '" + dir +
                                  "': " + made.message());
  }

  // Sweep out "<name>.tmpN" debris a crash mid-durable_write can strand
  // (the failure paths clean up after themselves, but nothing can clean
  // up after a real kill). Best effort: debris is inert, never read.
  for (const char* sub : {"queue", "checkpoints", "done", "failed"}) {
    const std::string dir = options_.spool_dir + "/" + sub;
    std::vector<std::string> names;
    if (!fs().list(dir, &names).ok()) continue;
    for (const std::string& name : names)
      if (is_tmp_debris(name)) (void)fs().remove(dir + "/" + name);
  }

  // Re-enqueue every submission a previous process accepted but never
  // retired. list() returns sorted names — a deterministic startup order.
  std::vector<std::string> names;
  const io::Status listed = io::with_retry(io::kDefaultRetryAttempts, [&] {
    return fs().list(options_.spool_dir + "/queue", &names);
  });
  if (!listed.ok())
    return set_error(error, "cannot scan spool queue: " + listed.message());
  for (const std::string& name : names) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".req") continue;
    const std::string path = options_.spool_dir + "/queue/" + name;
    std::string text;
    const io::Status read = io::with_retry(
        io::kDefaultRetryAttempts, [&] { return fs().read_file(path, &text); });
    if (!read.ok())
      return set_error(error, "cannot read spooled request '" + path +
                                  "': " + read.message());
    std::string line = text;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    std::string parse_error;
    const auto request = JobRequest::parse(line, &parse_error);
    if (!request)
      return set_error(error, "corrupt spooled request '" + path +
                                  "': " + parse_error);
    std::string id_error;
    const auto id = resolve_id(*request, &id_error);
    if (!id)
      return set_error(error, "stale spooled request '" + path +
                                  "': " + id_error);
    if (fs().exists(done_path(*id, "md"))) {
      // Completed by a previous process; the commit record beat the crash
      // but the .req removal did not. Retire it now.
      (void)fs().remove(path);
      continue;
    }
    queue_.submit(*id, *request);
  }

  running_.store(true);
  const std::uint32_t workers = std::max<std::uint32_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  return true;
}

std::optional<SubmitOutcome> Service::submit(const JobRequest& request,
                                             std::string* error,
                                             SubmitError* why) {
  if (why) *why = SubmitError::kNone;
  SubmitOutcome outcome;
  std::string id_error;
  const auto id = resolve_id(request, &id_error);
  if (!id) {
    if (why) *why = SubmitError::kBadRequest;
    set_error(error, id_error);
    return std::nullopt;
  }
  outcome.id = *id;

  const auto tracked = queue_.state(*id);
  const bool done_in_queue = tracked == JobState::kDone;
  if (done_in_queue || (!tracked && fs().exists(done_path(*id, "md")))) {
    outcome.cached = true;
    return outcome;
  }

  // Degraded read-only mode: the spool is known-unwritable, so accepting
  // the job would be a lie — it could never survive a crash. Cached
  // reports were already served above; everything else is rejected with
  // a structured error (explsimd maps it to its own exit code).
  if (degraded_.load()) {
    if (why) *why = SubmitError::kUnavailable;
    set_error(error, "service is degraded (read-only): " + degraded_reason());
    return std::nullopt;
  }

  // Durable before acknowledged: the .req file is what survives a crash.
  // Identical concurrent submissions write identical bytes, and the
  // rename makes the last writer win harmlessly. Transient failures are
  // retried inside durable_write; a permanent one degrades the service.
  const auto spool = [&]() -> bool {
    const io::Status spooled =
        io::durable_write(fs(), queue_path(*id), request.serialize() + "\n");
    if (!spooled.ok()) {
      if (spooled.permanent()) enter_degraded(spooled.message());
      if (why) *why = SubmitError::kUnavailable;
      set_error(error, "cannot spool request into '" + queue_path(*id) +
                           "': " + spooled.message());
      return false;
    }
    fs().crash_point("service.submit.spooled");
    return true;
  };
  // A queued or running job's .req is already durable. Rewriting it could
  // resurrect the file finish() has just retired (between its remove and
  // queue_.complete), leaving a stale .req behind a completed job.
  const bool pending =
      tracked == JobState::kQueued || tracked == JobState::kRunning;
  if (!pending && !spool()) return std::nullopt;
  const JobQueue::Submitted submitted = queue_.submit(*id, request);
  // The job failed (and record_failure retired its .req) between the
  // lookup above and submit(), so this is a retry that needs its .req.
  if (pending && submitted.enqueued && !spool()) return std::nullopt;
  outcome.accepted = submitted.enqueued;
  outcome.deduped = submitted.deduped;
  return outcome;
}

std::optional<SubmitOutcome> Service::submit_line(const std::string& line,
                                                  std::string* error,
                                                  SubmitError* why) {
  std::string parse_error;
  const auto request = JobRequest::parse(line, &parse_error);
  if (!request) {
    if (why) *why = SubmitError::kBadRequest;
    set_error(error, parse_error);
    return std::nullopt;
  }
  return submit(*request, error, why);
}

void Service::shutdown(Shutdown mode) {
  // The cancel flag is raised before anything else so a worker that is
  // about to start (or mid-way through) a sweep observes it at its next
  // group boundary — even if it wins the race with the join below.
  if (mode == Shutdown::kCancel) cancel_.store(true);
  if (!running_.exchange(false)) return;
  if (mode == Shutdown::kDrain) queue_.wait_idle();
  queue_.stop();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Service::drain() const { queue_.wait_idle(); }

std::optional<Job> Service::status(const std::string& id) const {
  return queue_.find(id);
}

std::vector<Job> Service::jobs() const { return queue_.jobs(); }

std::optional<std::string> Service::report(const std::string& id,
                                           const std::string& ext) const {
  // done/<id>.md is the commit record: without it the job never finished,
  // and whatever else sits in done/ (a csv whose md lost the crash race)
  // must not be served — it belongs to an execution that will rerun.
  if (!fs().exists(done_path(id, "md"))) return std::nullopt;
  std::string content;
  const io::Status read = io::with_retry(io::kDefaultRetryAttempts, [&] {
    return fs().read_file(done_path(id, ext), &content);
  });
  if (!read.ok()) return std::nullopt;
  return content;
}

std::uint64_t Service::executions() const noexcept {
  return executions_.load();
}

void Service::worker_loop() {
  while (auto job = queue_.claim()) execute(*job);
}

void Service::record_failure(const std::string& id,
                             const std::string& reason) {
  // Best effort on a path that is itself a failure handler: if even
  // failed/<id>.err cannot be written, the .req survives and the job
  // simply reruns at the next start() — failing is not durable state the
  // recovery invariant depends on, unlike finishing.
  const io::Status recorded =
      io::durable_write(fs(), failed_path(id), reason + "\n");
  if (!recorded.ok()) {
    if (recorded.permanent()) enter_degraded(recorded.message());
    return;
  }
  fs().crash_point("service.fail.recorded");
  (void)io::with_retry(io::kDefaultRetryAttempts,
                       [&] { return fs().remove(queue_path(id)); });
}

void Service::execute(const Job& job) {
  if (options_.crash_for_test && options_.crash_for_test(job)) {
    if (!queue_.requeue_or_fail(job.id, "worker crashed")) {
      const auto failed = queue_.find(job.id);
      record_failure(job.id,
                     failed ? failed->error : std::string("worker crashed"));
    }
    return;
  }

  executions_.fetch_add(1);
  std::string error;
  bool cancelled = false;
  const bool ok = job.request.kind == JobKind::kScenario
                      ? run_scenario_job(job, &error)
                      : run_sweep_job(job, &cancelled, &error);
  if (ok) {
    queue_.complete(job.id);
    return;
  }
  if (cancelled) {
    // A graceful stop, not a failure: the checkpoint holds every
    // completed point and the .req file keeps the job submitted, so the
    // next start() resumes it.
    queue_.release(job.id);
    return;
  }
  queue_.fail(job.id, error);
  record_failure(job.id, error);
}

bool Service::run_scenario_job(const Job& job, std::string* error) {
  const scenario::Scenario* s = scenarios_.find(job.request.name);
  if (!s)
    return set_error(error, "no scenario named '" + job.request.name + "'");
  const scenario::ScenarioResult result =
      scenario::run_scenario(*s, job.request.threads);
  return finish(job, scenario::markdown_report(result),
                scenario::csv_report(result), error);
}

bool Service::run_sweep_job(const Job& job, bool* cancelled,
                            std::string* error) {
  const sweep::SweepSpec* spec = sweeps_.find(job.request.name);
  if (!spec)
    return set_error(error, "no sweep named '" + job.request.name + "'");
  sweep::SweepRunOptions options;
  options.threads = job.request.threads;
  options.checkpoint_path = checkpoint_path(job.id);
  options.resume = true;  // A missing checkpoint is an empty one.
  options.cancel = &cancel_;
  options.fs = &fs();
  std::string run_error;
  const auto result = sweep::run_sweep(*spec, scenarios_, options, &run_error);
  if (!result) {
    if (cancel_.load()) *cancelled = true;
    return set_error(error, run_error);
  }
  return finish(job, sweep::sweep_markdown(*result),
                sweep::sweep_csv(*result), error);
}

bool Service::finish(const Job& job, const std::string& md,
                     const std::string& csv, std::string* error) {
  // Publish order is load-bearing: done/<id>.md is the commit record that
  // start(), submit() and report() all trust, so it lands LAST. csv
  // first, then md, then the .req retires — a crash after the csv reruns
  // the job (and rewrites identical bytes); a crash after the md leaves a
  // stale .req that start() retires in the report's favour. The reverse
  // order could serve a committed job whose csv never hit the disk.
  const io::Status csv_written =
      io::durable_write(fs(), done_path(job.id, "csv"), csv);
  if (!csv_written.ok()) {
    if (csv_written.permanent()) enter_degraded(csv_written.message());
    return set_error(error, "cannot write report into '" +
                                done_path(job.id, "csv") +
                                "': " + csv_written.message());
  }
  fs().crash_point("service.finish.csv-written");
  const io::Status md_written =
      io::durable_write(fs(), done_path(job.id, "md"), md);
  if (!md_written.ok()) {
    if (md_written.permanent()) enter_degraded(md_written.message());
    return set_error(error, "cannot write report into '" +
                                done_path(job.id, "md") +
                                "': " + md_written.message());
  }
  fs().crash_point("service.finish.committed");
  (void)io::with_retry(io::kDefaultRetryAttempts,
                       [&] { return fs().remove(queue_path(job.id)); });
  return true;
}

}  // namespace explframe::service
