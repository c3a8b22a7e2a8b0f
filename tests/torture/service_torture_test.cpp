// Service crash-consistency torture suite — the submit→claim→execute→
// report→retire pipeline is run once per *injected failure point*:
//
//   - a counting pass over io::FaultyFs records every filesystem
//     operation the pipeline performs, then the pipeline re-runs once per
//     operation index with a simulated process crash injected there
//     (un-synced bytes dropped, everything after failing);
//   - every name in io::crash_point_names() is armed in turn, on the
//     pipeline that reaches it (happy scenario, always-crashing worker,
//     sweep job), and the suite fails if a registered name is never
//     visited — the list cannot silently go stale;
//   - every operation index absorbs one injected *transient* error with
//     no recovery pass at all (the bounded deterministic retry);
//   - ENOSPC is injected into the report/done-cache writes specifically.
//
// The invariant asserted after every recovery: each job resolves to a
// served report (byte-identical to an undisturbed run) or a
// resubmittable/failed entry — never a lost job, and never a duplicated
// execution of a committed one. Each injection run appends a line to
// torture_trace.service.log (the CI failure artifact).
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../io/faulty_fs.hpp"
#include "io/fs.hpp"
#include "scenario/registry.hpp"
#include "service/service.hpp"
#include "support/check.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace explframe::service {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// Small but real grid: 2x2 points x 2 trials of the quickstart attack,
/// in a private registry so the torture runs never pay for the builtin
/// catalogue.
const sweep::Registry& sweeps() {
  static const sweep::Registry registry = [] {
    const auto spec = sweep::SweepSpec::from_sweep(
        "name = tiny-grid\n"
        "title = Tiny torture grid\n"
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

/// A fresh spool directory per injection run.
std::string fresh_spool(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// One line per injection run; lands in the ctest cwd (build/) so CI can
/// upload it when the suite fails.
void log_line(const std::string& line) {
  static std::ofstream log("torture_trace.service.log", std::ios::trunc);
  log << line << "\n";
  log.flush();
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

/// One full pipeline pass: start, submit, drain, drain-shutdown. Start
/// and submit failures are tolerated (under a crash plan they are the
/// expected outcome, and recovery is the thing under test).
void run_pipeline(io::FileSystem* fs, const std::string& spool,
                  const JobRequest& request,
                  std::function<bool(const Job&)> crash_for_test = nullptr,
                  std::uint32_t max_attempts = 2) {
  ServiceOptions options;
  options.spool_dir = spool;
  options.workers = 1;  // One worker => a deterministic operation trace.
  options.max_attempts = max_attempts;
  options.crash_for_test = std::move(crash_for_test);
  options.fs = fs;
  Service service(std::move(options), scenarios(), sweeps());
  if (service.start(nullptr)) {
    (void)service.submit(request);
    service.drain();
  }
  service.shutdown(Service::Shutdown::kDrain);
}

/// The undisturbed pipeline's outputs — what every recovery must
/// reproduce byte-identically.
struct Reference {
  std::string id;
  std::string md;
  std::string csv;
};

Reference make_reference(const JobRequest& request,
                         const std::string& spool_name) {
  const std::string spool = fresh_spool(spool_name);
  run_pipeline(nullptr, spool, request);
  Reference ref;
  std::string error;
  const auto id = job_id(request, scenarios(), sweeps(), &error);
  EXPLFRAME_CHECK(id.has_value());
  ref.id = *id;
  EXPLFRAME_CHECK(
      io::real().read_file(spool + "/done/" + ref.id + ".md", &ref.md).ok());
  EXPLFRAME_CHECK(
      io::real()
          .read_file(spool + "/done/" + ref.id + ".csv", &ref.csv)
          .ok());
  return ref;
}

/// THE recovery invariant: restart on the real filesystem, resubmit, and
/// the job must resolve to the reference report — executing again only if
/// the crashed run never committed (done/<id>.md is the commit record).
void recover_and_verify(const std::string& spool, const JobRequest& request,
                        const Reference& ref, const std::string& label) {
  const bool committed =
      io::real().exists(spool + "/done/" + ref.id + ".md");
  ServiceOptions options;
  options.spool_dir = spool;
  options.workers = 1;
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << label << ": " << error;
  std::string submit_error;
  const auto outcome = service.submit(request, &submit_error);
  ASSERT_TRUE(outcome.has_value()) << label << ": " << submit_error;
  EXPECT_EQ(outcome->id, ref.id) << label;
  service.drain();
  service.shutdown(Service::Shutdown::kDrain);

  const auto md = service.report(ref.id, "md");
  const auto csv = service.report(ref.id, "csv");
  ASSERT_TRUE(md.has_value()) << label << ": job lost (no md report)";
  ASSERT_TRUE(csv.has_value()) << label << ": job lost (no csv report)";
  EXPECT_EQ(*md, ref.md) << label << ": recovered md drifted";
  EXPECT_EQ(*csv, ref.csv) << label << ": recovered csv drifted";
  if (committed) {
    EXPECT_EQ(service.executions(), 0u)
        << label << ": duplicated execution of a committed job";
  } else {
    EXPECT_EQ(service.executions(), 1u) << label;
  }
  EXPECT_FALSE(io::real().exists(spool + "/queue/" + ref.id + ".req"))
      << label << ": stale .req after completion";
}

/// The per-kind ordinal of trace[k] — what fail_nth scripts against.
std::uint64_t ordinal_of(const std::vector<io::FaultyFs::OpRecord>& trace,
                         std::size_t k) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < k; ++i)
    if (trace[i].op == trace[k].op) ++n;
  return n;
}

TEST(ServiceTorture, CrashAtEveryOperationRecoversWithoutLossOrDuplication) {
  const Reference ref = make_reference(scenario_request(), "torture-ref");

  // Counting pass: no faults, record the pipeline's operation trace.
  io::FaultyFs counter(io::real());
  const std::string count_spool = fresh_spool("torture-count");
  run_pipeline(&counter, count_spool, scenario_request());
  const std::vector<io::FaultyFs::OpRecord> trace = counter.trace();
  ASSERT_GE(trace.size(), 15u);  // mkdirs, lists, spool, two reports.
  log_line("counting pass: " + std::to_string(trace.size()) +
           " operations in the scenario pipeline");

  for (std::size_t k = 0; k < trace.size(); ++k) {
    const std::string label = "crash at " + trace[k].describe(k);
    log_line(label);
    const std::string spool =
        fresh_spool("torture-crash-" + std::to_string(k));
    io::FaultyFs faulty(io::real());
    faulty.crash_at_op(k);
    run_pipeline(&faulty, spool, scenario_request());
    EXPECT_TRUE(faulty.crashed()) << label;
    recover_and_verify(spool, scenario_request(), ref, label);
    if (::testing::Test::HasFailure()) {
      log_line("FAILED: " + label);
      return;
    }
  }
  log_line("crash-at-every-op: all " + std::to_string(trace.size()) +
           " points recovered");
}

TEST(ServiceTorture, EveryRegisteredCrashPointIsVisitedAndRecovers) {
  const Reference scenario_ref =
      make_reference(scenario_request(), "torture-cp-sref");
  const Reference sweep_ref =
      make_reference(sweep_request(), "torture-cp-swref");

  // Which pipeline reaches which point: the happy scenario path covers
  // submit/finish, a worker that always crashes covers fail.recorded,
  // and a sweep job covers the checkpoint append.
  const auto crash_always = [](const Job&) { return true; };
  std::vector<std::string> visited_union;
  for (const std::string& name : io::crash_point_names()) {
    const std::string label = "crash point " + name;
    log_line(label);
    const std::string spool = fresh_spool("torture-point-" + name);
    io::FaultyFs faulty(io::real());
    faulty.crash_at_point(name);
    const bool fail_path = name == "service.fail.recorded";
    const bool sweep_path = name == "sweep.checkpoint.appended";
    const JobRequest request =
        sweep_path ? sweep_request() : scenario_request();
    run_pipeline(&faulty, spool, request,
                 fail_path ? std::function<bool(const Job&)>(crash_always)
                           : nullptr,
                 fail_path ? 1 : 2);
    for (const std::string& seen : faulty.visited_points())
      if (std::find(visited_union.begin(), visited_union.end(), seen) ==
          visited_union.end())
        visited_union.push_back(seen);
    EXPECT_TRUE(faulty.crashed())
        << label << ": the pipeline never reached this point — the "
        << "crash_point_names() registry is stale";
    recover_and_verify(spool, request,
                       sweep_path ? sweep_ref : scenario_ref, label);
    if (::testing::Test::HasFailure()) {
      log_line("FAILED: " + label);
      return;
    }
  }

  // Every registered name was visited by some pipeline above.
  for (const std::string& name : io::crash_point_names())
    EXPECT_NE(std::find(visited_union.begin(), visited_union.end(), name),
              visited_union.end())
        << "registered crash point never visited: " << name;
  log_line("crash points: all " +
           std::to_string(io::crash_point_names().size()) +
           " registered points visited and recovered");
}

TEST(ServiceTorture, OneTransientFaultAtAnyOperationIsAbsorbedByRetries) {
  const Reference ref = make_reference(scenario_request(), "torture-tr-ref");

  io::FaultyFs counter(io::real());
  const std::string count_spool = fresh_spool("torture-tr-count");
  run_pipeline(&counter, count_spool, scenario_request());
  const std::vector<io::FaultyFs::OpRecord> trace = counter.trace();

  for (std::size_t k = 0; k < trace.size(); ++k) {
    const std::string label = "transient at " + trace[k].describe(k);
    log_line(label);
    const std::string spool = fresh_spool("torture-tr-" + std::to_string(k));
    io::FaultyFs faulty(io::real());
    faulty.fail_nth(trace[k].op, ordinal_of(trace, k),
                    io::Status::transient_error("injected flake"));

    // No recovery pass: the bounded deterministic retry must absorb the
    // flake and the pipeline must complete as if nothing happened.
    ServiceOptions options;
    options.spool_dir = spool;
    options.workers = 1;
    options.fs = &faulty;
    Service service(std::move(options), scenarios(), sweeps());
    std::string error;
    ASSERT_TRUE(service.start(&error)) << label << ": " << error;
    std::string submit_error;
    const auto outcome = service.submit(scenario_request(), &submit_error);
    ASSERT_TRUE(outcome.has_value()) << label << ": " << submit_error;
    service.drain();
    service.shutdown(Service::Shutdown::kDrain);
    EXPECT_FALSE(service.degraded()) << label;
    const auto md = service.report(ref.id, "md");
    const auto csv = service.report(ref.id, "csv");
    ASSERT_TRUE(md.has_value() && csv.has_value()) << label;
    EXPECT_EQ(*md, ref.md) << label;
    EXPECT_EQ(*csv, ref.csv) << label;
    if (::testing::Test::HasFailure()) {
      log_line("FAILED: " + label);
      return;
    }
  }
  log_line("transient-absorb: all " + std::to_string(trace.size()) +
           " operations retried clean");
}

TEST(ServiceTorture, PermanentSpoolFailureDegradesToReadOnly) {
  const Reference ref = make_reference(scenario_request(), "torture-dg-ref");
  const std::string spool = fresh_spool("torture-degraded");
  io::FaultyFs faulty(io::real());

  ServiceOptions options;
  options.spool_dir = spool;
  options.workers = 1;
  options.fs = &faulty;
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;

  // A first job completes while the disk is healthy.
  const auto first = service.submit(scenario_request(), &error);
  ASSERT_TRUE(first.has_value()) << error;
  service.drain();
  ASSERT_TRUE(service.report(ref.id, "md").has_value());
  ASSERT_FALSE(service.degraded());

  // The disk fills: the next (different) submission cannot be spooled,
  // and the failure is permanent — the service flips to read-only.
  faulty.set_capacity(0);
  std::string submit_error;
  SubmitError why = SubmitError::kNone;
  EXPECT_FALSE(
      service.submit(sweep_request(), &submit_error, &why).has_value());
  EXPECT_EQ(why, SubmitError::kUnavailable);
  EXPECT_TRUE(service.degraded());
  EXPECT_FALSE(service.degraded_reason().empty());

  // Read-only means exactly that: the cached report still serves, a
  // resubmission of the completed job is answered from the cache, and
  // new work keeps being rejected with the structured error.
  const auto cached = service.submit(scenario_request(), &submit_error, &why);
  ASSERT_TRUE(cached.has_value()) << submit_error;
  EXPECT_TRUE(cached->cached);
  const auto md = service.report(ref.id, "md");
  ASSERT_TRUE(md.has_value());
  EXPECT_EQ(*md, ref.md);
  EXPECT_FALSE(
      service.submit(sweep_request(), &submit_error, &why).has_value());
  EXPECT_EQ(why, SubmitError::kUnavailable);
  EXPECT_NE(submit_error.find("degraded"), std::string::npos)
      << submit_error;
  service.shutdown(Service::Shutdown::kDrain);

  // A bad request is still a bad request, not "unavailable" — the exit
  // codes explsimd derives from this distinction must stay truthful.
  EXPECT_FALSE(
      service.submit_line("explsimd-request v1 kind=scenario name=nope",
                          &submit_error, &why)
          .has_value());
  EXPECT_EQ(why, SubmitError::kBadRequest);
}

TEST(ServiceTorture, EnospcDuringReportEmissionFailsTheJobResubmittably) {
  const Reference ref = make_reference(scenario_request(), "torture-en-ref");

  io::FaultyFs counter(io::real());
  const std::string count_spool = fresh_spool("torture-en-count");
  run_pipeline(&counter, count_spool, scenario_request());
  const std::vector<io::FaultyFs::OpRecord> trace = counter.trace();

  // The write ops that build the done-cache entries, by per-kind ordinal.
  std::optional<std::uint64_t> csv_write;
  std::optional<std::uint64_t> md_write;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (trace[k].op != io::Op::kWrite) continue;
    if (trace[k].path.find("/done/") == std::string::npos) continue;
    if (!csv_write && trace[k].path.find(".csv") != std::string::npos)
      csv_write = ordinal_of(trace, k);
    if (!md_write && trace[k].path.find(".md") != std::string::npos)
      md_write = ordinal_of(trace, k);
  }
  ASSERT_TRUE(csv_write.has_value());
  ASSERT_TRUE(md_write.has_value());

  for (const bool fail_md : {false, true}) {
    const std::string label =
        fail_md ? "ENOSPC on the md commit record" : "ENOSPC on the csv";
    log_line(label);
    const std::string spool = fresh_spool(fail_md ? "torture-en-md"
                                                  : "torture-en-csv");
    io::FaultyFs faulty(io::real());
    faulty.fail_nth(io::Op::kWrite, fail_md ? *md_write : *csv_write,
                    io::Status::from_errno(ENOSPC, "injected disk full"));

    ServiceOptions options;
    options.spool_dir = spool;
    options.workers = 1;
    options.fs = &faulty;
    Service service(std::move(options), scenarios(), sweeps());
    std::string error;
    ASSERT_TRUE(service.start(&error)) << label << ": " << error;
    const auto outcome = service.submit(scenario_request(), &error);
    ASSERT_TRUE(outcome.has_value()) << label << ": " << error;
    service.drain();
    service.shutdown(Service::Shutdown::kDrain);

    // The job failed, with the reason filed; ENOSPC is permanent, so the
    // service is degraded.
    const auto job = service.status(ref.id);
    ASSERT_TRUE(job.has_value()) << label;
    EXPECT_EQ(job->state, JobState::kFailed) << label;
    EXPECT_TRUE(service.degraded()) << label;
    std::string reason;
    ASSERT_TRUE(io::real()
                    .read_file(spool + "/failed/" + ref.id + ".err", &reason)
                    .ok())
        << label;
    EXPECT_NE(reason.find("ENOSPC"), std::string::npos) << label;

    // A partially emitted report is NEVER served: without the md commit
    // record neither extension resolves, even if the csv bytes landed.
    EXPECT_FALSE(service.report(ref.id, "md").has_value()) << label;
    EXPECT_FALSE(service.report(ref.id, "csv").has_value()) << label;
    EXPECT_FALSE(io::real().exists(spool + "/done/" + ref.id + ".md"))
        << label;
    if (!fail_md) {
      EXPECT_FALSE(io::real().exists(spool + "/done/" + ref.id + ".csv"))
          << label;
    }

    // Failed is resubmittable: on a healed disk the same request runs
    // again and produces the reference bytes.
    recover_and_verify(spool, scenario_request(), ref, label);
    if (::testing::Test::HasFailure()) {
      log_line("FAILED: " + label);
      return;
    }
  }
  log_line("ENOSPC report emission: both orderings fail resubmittably");
}

}  // namespace
}  // namespace explframe::service
