// service::Service integration suite — the explsimd engine in-process:
// concurrent duplicate submissions collapse to one execution, completed
// reports are served from the cache byte-identically, a crashed worker
// requeues exactly once before the retry cap files the job under
// failed/, a cancel shutdown mid-sweep leaves a resumable checkpoint the
// next daemon finishes byte-identically, spooled .req files survive
// restarts, a resubmission racing a finishing job leaves no stale .req,
// and job ids are memoized per Service, never across Services. Runs under
// ASan and TSan in CI — the worker pool and queue must be clean at any
// interleaving.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "sweep/registry.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace explframe::service {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// Small but real grid: 2x2 points x 2 trials of the quickstart attack —
/// registered under a private sweep registry so the daemon tests never
/// pay for the full builtin catalogue.
const sweep::Registry& sweeps() {
  static const sweep::Registry registry = [] {
    const auto spec = sweep::SweepSpec::from_sweep(
        "name = tiny-grid\n"
        "title = Tiny test grid\n"
        "base = quickstart\n"
        "base.trials = 2\n"
        "axis.defence = none,trr\n"
        "axis.max_rows = 24,48\n");
    EXPLFRAME_CHECK(spec.has_value());
    sweep::Registry r;
    r.add(*spec);
    return r;
  }();
  return registry;
}

/// A fresh spool directory per test.
std::string fresh_spool(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

JobRequest scenario_request() {
  JobRequest request;
  request.kind = JobKind::kScenario;
  request.name = "quickstart";
  return request;
}

JobRequest sweep_request() {
  JobRequest request;
  request.kind = JobKind::kSweep;
  request.name = "tiny-grid";
  return request;
}

TEST(Service, ConcurrentDuplicateSubmissionsExecuteOnce) {
  ServiceOptions options;
  options.spool_dir = fresh_spool("svc-dedupe");
  options.workers = 2;
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;

  // Four clients race the same experiment in.
  std::vector<SubmitOutcome> outcomes(4);
  {
    std::vector<std::thread> clients;
    for (SubmitOutcome& slot : outcomes)
      clients.emplace_back([&service, &slot] {
        const auto outcome = service.submit(scenario_request());
        ASSERT_TRUE(outcome.has_value());
        slot = *outcome;
      });
    for (std::thread& client : clients) client.join();
  }
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);

  int accepted = 0;
  for (const SubmitOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.id, outcomes.front().id);
    accepted += outcome.accepted ? 1 : 0;
    EXPECT_TRUE(outcome.accepted || outcome.deduped || outcome.cached);
  }
  EXPECT_EQ(accepted, 1);  // Exactly one submission created the job.
  EXPECT_EQ(service.executions(), 1u);
  const auto job = service.status(outcomes.front().id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kDone);
  const auto report = service.report(outcomes.front().id, "md");
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->empty());
}

TEST(Service, CompletedReportsAreServedFromTheCacheByteIdentically) {
  const std::string spool = fresh_spool("svc-cache");
  std::string id;
  std::string first_md;
  std::string first_csv;
  {
    ServiceOptions options;
    options.spool_dir = spool;
    Service service(std::move(options), scenarios(), sweeps());
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    const auto outcome = service.submit(scenario_request(), &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    id = outcome->id;
    service.drain();

    // A resubmission after completion is a cache hit, not a new run.
    const auto again = service.submit(scenario_request(), &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_TRUE(again->cached);
    EXPECT_EQ(service.executions(), 1u);
    first_md = service.report(id, "md").value_or("");
    first_csv = service.report(id, "csv").value_or("");
    ASSERT_FALSE(first_md.empty());
    ASSERT_FALSE(first_csv.empty());
    service.shutdown(Service::Shutdown::kDrain);
  }

  // A brand-new daemon over the same spool serves the same bytes without
  // executing anything.
  ServiceOptions options;
  options.spool_dir = spool;
  Service revived(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(revived.start(&error)) << error;
  const auto outcome = revived.submit(scenario_request(), &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_TRUE(outcome->cached);
  EXPECT_EQ(outcome->id, id);
  revived.drain();
  EXPECT_EQ(revived.executions(), 0u);
  EXPECT_EQ(revived.report(id, "md").value_or(""), first_md);
  EXPECT_EQ(revived.report(id, "csv").value_or(""), first_csv);
  revived.shutdown(Service::Shutdown::kDrain);
}

TEST(Service, CrashedWorkerRequeuesExactlyOnceThenSucceeds) {
  std::atomic<std::uint32_t> crashes{0};
  ServiceOptions options;
  options.spool_dir = fresh_spool("svc-crash-once");
  options.max_attempts = 2;
  options.crash_for_test = [&crashes](const Job&) {
    // Only the first attempt dies.
    return crashes.fetch_add(1) == 0;
  };
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const auto outcome = service.submit(scenario_request(), &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);

  const auto job = service.status(outcome->id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kDone);
  EXPECT_EQ(job->attempts, 2u);
  EXPECT_EQ(job->requeues, 1u);
  // Only the surviving attempt ran the experiment.
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_TRUE(service.report(outcome->id, "md").has_value());
}

TEST(Service, RetryCapFilesTheJobUnderFailed) {
  ServiceOptions options;
  options.spool_dir = fresh_spool("svc-crash-cap");
  options.max_attempts = 2;
  options.crash_for_test = [](const Job&) { return true; };  // Always dies.
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;
  const auto outcome = service.submit(scenario_request(), &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);

  const auto job = service.status(outcome->id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kFailed);
  EXPECT_EQ(job->attempts, 2u);   // The cap, exactly.
  EXPECT_EQ(job->requeues, 1u);   // max_attempts - 1, never more.
  EXPECT_NE(job->error.find("gave up after 2"), std::string::npos)
      << job->error;
  EXPECT_EQ(service.executions(), 0u);
  // The verdict is durable: failed/<id>.err exists, the .req is retired.
  EXPECT_TRUE(std::filesystem::exists(service.failed_path(outcome->id)));
  EXPECT_FALSE(std::filesystem::exists(service.queue_path(outcome->id)));
  EXPECT_FALSE(service.report(outcome->id, "md").has_value());
}

TEST(Service, CancelShutdownLeavesResumableStateAndRestartCompletes) {
  const std::string spool = fresh_spool("svc-cancel");

  // The byte-identity reference: an uninterrupted in-process run.
  const sweep::SweepSpec& spec = *sweeps().find("tiny-grid");
  std::string error;
  const auto fresh = sweep::run_sweep(spec, scenarios(), {}, &error);
  ASSERT_TRUE(fresh.has_value()) << error;

  std::string id;
  {
    Service* handle = nullptr;
    ServiceOptions options;
    options.spool_dir = spool;
    options.workers = 1;
    // The gate: the claimed attempt blocks until the cancel flag is
    // raised, so the sweep deterministically starts only when stopping
    // it is already requested — the worst-case shutdown interleaving.
    options.crash_for_test = [&handle](const Job&) {
      while (!handle->cancel_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return false;
    };
    Service service(std::move(options), scenarios(), sweeps());
    handle = &service;
    ASSERT_TRUE(service.start(&error)) << error;

    const auto outcome = service.submit(sweep_request(), &error);
    ASSERT_TRUE(outcome.has_value()) << error;
    id = outcome->id;

    // Pre-seed the job's checkpoint with half the grid (what an earlier
    // partial attempt would have left) so the restart exercises a real
    // resume, not just a rerun.
    {
      const char* digits = "0123456789abcdef";
      std::uint64_t h = spec.spec_hash(scenarios());
      std::string hex(16, '0');
      for (int i = 15; i >= 0; --i, h >>= 4) hex[i] = digits[h & 0xf];
      std::ofstream out(service.checkpoint_path(id), std::ios::binary);
      out << "explsim-sweep-checkpoint v1 sweep=" << spec.name
          << " spec_hash=" << hex << "\n"
          << fresh->records[0].serialize() << "\n"
          << fresh->records[2].serialize() << "\n";
    }

    // Wait for the worker to claim the job, then cancel mid-attempt.
    while (true) {
      const auto job = service.status(id);
      ASSERT_TRUE(job.has_value());
      if (job->state == JobState::kRunning) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.shutdown(Service::Shutdown::kCancel);

    // The job went back to queued (the attempt was not a crash), the
    // submission file survives, and the checkpoint is intact.
    const auto job = service.status(id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::kQueued);
    EXPECT_EQ(job->requeues, 0u);
    EXPECT_TRUE(std::filesystem::exists(service.queue_path(id)));
    EXPECT_TRUE(std::filesystem::exists(service.checkpoint_path(id)));
  }

  // The next daemon rescans the spool, resumes from the checkpoint and
  // finishes — emitting exactly the bytes an uninterrupted run emits.
  ServiceOptions options;
  options.spool_dir = spool;
  Service revived(std::move(options), scenarios(), sweeps());
  ASSERT_TRUE(revived.start(&error)) << error;
  revived.drain();
  revived.shutdown(Service::Shutdown::kDrain);
  const auto job = revived.status(id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kDone);
  EXPECT_EQ(revived.report(id, "md").value_or(""),
            sweep::sweep_markdown(*fresh));
  EXPECT_EQ(revived.report(id, "csv").value_or(""), sweep::sweep_csv(*fresh));
  // A finished job has nothing left to resume.
  EXPECT_FALSE(std::filesystem::exists(revived.checkpoint_path(id)));
}

TEST(Service, StartupRescanPicksUpSpooledRequests) {
  const std::string spool = fresh_spool("svc-rescan");
  // A client dropped a request while no daemon was running (what
  // `explsimd submit` does): just the durable .req file.
  const JobRequest request = scenario_request();
  std::string error;
  const auto id = job_id(request, scenarios(), sweeps(), &error);
  ASSERT_TRUE(id.has_value()) << error;
  std::filesystem::create_directories(spool + "/queue");
  {
    std::ofstream out(spool + "/queue/" + *id + ".req", std::ios::binary);
    out << request.serialize() << "\n";
  }

  ServiceOptions options;
  options.spool_dir = spool;
  Service service(std::move(options), scenarios(), sweeps());
  ASSERT_TRUE(service.start(&error)) << error;
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);
  const auto job = service.status(*id);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, JobState::kDone);
  EXPECT_EQ(service.executions(), 1u);
  ASSERT_TRUE(service.report(*id, "md").has_value());
}

/// Passes every call through to io::real(), except that removing `gated`
/// removes it and then blocks until release(): it holds a worker inside
/// Service::finish, after the .req retirement and before the job is marked
/// done, for as long as the test needs.
class GatedRemoveFs : public io::FileSystem {
 public:
  explicit GatedRemoveFs(std::string gated) : gated_(std::move(gated)) {}

  io::Status open(const std::string& path, io::OpenMode mode,
                  std::unique_ptr<io::File>* out) override {
    return io::real().open(path, mode, out);
  }
  io::Status read_file(const std::string& path, std::string* out) override {
    return io::real().read_file(path, out);
  }
  io::Status rename(const std::string& from, const std::string& to) override {
    return io::real().rename(from, to);
  }
  io::Status remove(const std::string& path) override {
    const io::Status removed = io::real().remove(path);
    if (path == gated_) {
      std::unique_lock<std::mutex> lock(mutex_);
      removed_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return removed;
  }
  io::Status list(const std::string& dir,
                  std::vector<std::string>* names) override {
    return io::real().list(dir, names);
  }
  io::Status truncate(const std::string& path, std::uint64_t size) override {
    return io::real().truncate(path, size);
  }
  io::Status create_directories(const std::string& path) override {
    return io::real().create_directories(path);
  }
  bool exists(const std::string& path) const override {
    return io::real().exists(path);
  }

  /// Wait (bounded) until the gated file has been removed.
  bool wait_removed() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::minutes(2),
                        [&] { return removed_; });
  }
  /// Let the blocked remove() return (and never block again).
  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const std::string gated_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool removed_ = false;
  bool released_ = false;
};

TEST(Service, ResubmittingAFinishingJobLeavesNoStaleRequest) {
  // Regression: a resubmission landing between finish()'s .req removal
  // and the queue marking the job done used to re-spool queue/<id>.req,
  // leaving a stale request behind a completed job.
  const std::string spool = fresh_spool("svc-stale-req");
  const JobRequest request = scenario_request();
  std::string error;
  const auto id = job_id(request, scenarios(), sweeps(), &error);
  ASSERT_TRUE(id.has_value()) << error;
  const std::string req = spool + "/queue/" + *id + ".req";
  GatedRemoveFs fs(req);

  ServiceOptions options;
  options.spool_dir = spool;
  options.workers = 1;
  options.fs = &fs;
  Service service(std::move(options), scenarios(), sweeps());
  ASSERT_TRUE(service.start(&error)) << error;
  const auto first = service.submit(request, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_TRUE(first->accepted);

  const bool removed = fs.wait_removed();
  std::optional<SubmitOutcome> again;
  if (removed) again = service.submit(request, &error);
  fs.release();
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);

  ASSERT_TRUE(removed) << "the worker never retired the .req";
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_TRUE(again->deduped);
  EXPECT_EQ(service.executions(), 1u);
  EXPECT_TRUE(service.report(*id, "md").has_value());
  EXPECT_FALSE(std::filesystem::exists(req))
      << "stale .req after completion";
}

TEST(Service, CorruptSpooledRequestFailsStartupLoudly) {
  const std::string spool = fresh_spool("svc-corrupt");
  std::filesystem::create_directories(spool + "/queue");
  {
    std::ofstream out(spool + "/queue/junk.req", std::ios::binary);
    out << "not a request at all\n";
  }
  ServiceOptions options;
  options.spool_dir = spool;
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  EXPECT_FALSE(service.start(&error));
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

TEST(Service, UnknownNamesAndBadLinesAreRejectedWithErrors) {
  ServiceOptions options;
  options.spool_dir = fresh_spool("svc-reject");
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;

  JobRequest unknown;
  unknown.kind = JobKind::kSweep;
  unknown.name = "no-such-grid";
  EXPECT_FALSE(service.submit(unknown, &error).has_value());
  EXPECT_NE(error.find("no sweep named"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(service.submit_line("explsimd-request v9 kind=sweep", &error)
                   .has_value());
  EXPECT_FALSE(error.empty());

  // The canonical line round-trips into an accepted job.
  const auto outcome = service.submit_line(
      "explsimd-request v1 kind=scenario name=quickstart", &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_TRUE(outcome->accepted);
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);
  EXPECT_EQ(service.status(outcome->id)->state, JobState::kDone);
}

/// The builtin scenarios with quickstart's seed moved by one: the same
/// names, and a different base definition under tiny-grid.
scenario::Registry reseeded_scenarios() {
  scenario::Registry registry;
  for (scenario::Scenario s : scenarios().all()) {
    if (s.name == "quickstart") s.seed += 1;
    registry.add(std::move(s));
  }
  return registry;
}

TEST(Service, JobIdsAreResolvedPerService) {
  const std::string spool = fresh_spool("svc-ids");
  std::string error;
  const auto scenario_id = job_id(scenario_request(), scenarios(), sweeps());
  const auto sweep_id = job_id(sweep_request(), scenarios(), sweeps());
  ASSERT_TRUE(scenario_id.has_value());
  ASSERT_TRUE(sweep_id.has_value());
  {
    ServiceOptions options;
    options.spool_dir = spool;
    Service service(std::move(options), scenarios(), sweeps());
    ASSERT_TRUE(service.start(&error)) << error;
    // New, then deduped or cached: every outcome carries job_id's id.
    for (int round = 0; round < 3; ++round) {
      const auto scn = service.submit(scenario_request(), &error);
      ASSERT_TRUE(scn.has_value()) << error;
      EXPECT_EQ(scn->id, *scenario_id);
      const auto swp = service.submit(sweep_request(), &error);
      ASSERT_TRUE(swp.has_value()) << error;
      EXPECT_EQ(swp->id, *sweep_id);
      if (round == 1) service.drain();
      if (round == 2) {
        EXPECT_TRUE(scn->cached);
        EXPECT_TRUE(swp->cached);
      }
    }

    // A failed resolution is not remembered: the name stays unknown.
    JobRequest unknown = sweep_request();
    unknown.name = "no-such-grid";
    for (int attempt = 0; attempt < 3; ++attempt) {
      error.clear();
      SubmitError why = SubmitError::kNone;
      EXPECT_FALSE(service.submit(unknown, &error, &why).has_value());
      EXPECT_EQ(why, SubmitError::kBadRequest);
      EXPECT_NE(error.find("no sweep named"), std::string::npos) << error;
    }
    service.shutdown(Service::Shutdown::kDrain);
    EXPECT_EQ(service.executions(), 2u);
  }

  // A second Service over the same spool whose base scenario differs only
  // in its seed resolves the same sweep name to its own id, and runs it
  // instead of serving the first Service's report.
  const scenario::Registry reseeded = reseeded_scenarios();
  const auto reseeded_id = job_id(sweep_request(), reseeded, sweeps());
  ASSERT_TRUE(reseeded_id.has_value());
  EXPECT_NE(*reseeded_id, *sweep_id);
  ServiceOptions options;
  options.spool_dir = spool;
  Service service(std::move(options), reseeded, sweeps());
  ASSERT_TRUE(service.start(&error)) << error;
  const auto outcome = service.submit(sweep_request(), &error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_EQ(outcome->id, *reseeded_id);
  EXPECT_TRUE(outcome->accepted);
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);
  EXPECT_EQ(service.executions(), 1u);
}

}  // namespace
}  // namespace explframe::service
