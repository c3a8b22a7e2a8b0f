// The daemon-sweeps workload: a service::Service on a fresh spool, clients
// submitting generated sweep jobs in a closed loop and waiting for each
// report (the write path), then resubmitting every job (the read path:
// the done-cache).
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "counting_fs.hpp"
#include "service/service.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ex = explframe;
using ex::service::JobRequest;
using ex::service::Service;

namespace {

/// Generated jobs per run: more than the fastest first pass can finish,
/// so every first-pass submission is new work.
constexpr std::size_t kJobPool = 2048;

/// First-pass share of a run's seconds; the cached pass gets the rest.
constexpr double kFirstPassShare = 0.75;

struct Completed {
  std::string name;
  std::string id;
  std::string csv;
  std::string md;
};

using Pass = Lane<Completed>;

JobRequest request(const std::string& name) {
  JobRequest r;
  r.kind = ex::service::JobKind::kSweep;
  r.name = name;
  r.threads = 1;  // One thread per job: the thread budget is the pool's.
  return r;
}

/// Submits `name` as new work, waits until its report is readable through
/// Service::report and reads it. Throws with the reason on any failure.
Completed run_job(Service& service, const std::string& name, Trace* spans) {
  std::optional<Trace::Span> span;
  if (spans) span.emplace(*spans, "service.submit");
  std::string error;
  const auto outcome = service.submit(request(name), &error);
  span.reset();
  if (!outcome) throw std::runtime_error("submit rejected: " + error);
  if (!outcome->accepted)
    throw std::runtime_error("first submission was not taken as new work");

  if (spans) span.emplace(*spans, "service.wait");
  for (;;) {
    const auto job = service.status(outcome->id);
    if (!job) throw std::runtime_error("submitted job is not tracked");
    if (job->state == ex::service::JobState::kDone) break;
    if (job->state == ex::service::JobState::kFailed)
      throw std::runtime_error("job filed under failed/: " + job->error);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  span.reset();

  if (spans) span.emplace(*spans, "service.report");
  auto csv = service.report(outcome->id, "csv");
  auto md = service.report(outcome->id, "md");
  if (!csv || !md) throw std::runtime_error("completed report not readable");
  return {name, outcome->id, std::move(*csv), std::move(*md)};
}

Pass first_pass(Service& service, const SweepJobs& jobs, std::uint32_t clients,
                double seconds, bool traced) {
  std::vector<Pass> lanes(clients);
  const double wall = closed_loop(
      clients, seconds, kDaemonWindow, jobs.sweeps.all().size(),
      [&](std::uint32_t w, std::uint64_t op) {
        Pass& lane = lanes[w];
        const std::string& name = jobs.sweeps.all()[op].name;
        ++lane.attempted;
        try {
          const auto t0 = Clock::now();
          std::optional<Trace::Span> root;
          if (traced) root.emplace(lane.spans, "op");
          Completed done = run_job(service, name, traced ? &lane.spans : nullptr);
          root.reset();
          lane.latency_ms.push_back(ms_between(t0, Clock::now()));
          lane.out.emplace(op, std::move(done));
        } catch (const std::exception& e) {
          lane.failures.push_back(name + ": " + e.what());
        }
      });
  Pass pass = Pass::merge(lanes, wall);
  pass.counts.add("service.submits", pass.attempted);
  return pass;
}

/// Resubmits the completed jobs round-robin; each operation is a submit
/// that must be served from the done-cache plus a report read that must
/// return the first pass's bytes.
Pass cached_pass(Service& service, const std::map<std::uint64_t, Completed>& done,
                 std::uint32_t clients, double seconds) {
  std::vector<const Completed*> jobs;
  for (const auto& [op, c] : done) jobs.push_back(&c);
  std::vector<Pass> lanes(clients);
  if (jobs.empty()) return Pass::merge(lanes, 0.0);
  const double wall = closed_loop(
      clients, seconds, 1, UINT64_MAX,
      [&](std::uint32_t w, std::uint64_t op) {
        Pass& lane = lanes[w];
        const Completed& c = *jobs[op % jobs.size()];
        ++lane.attempted;
        std::string error;
        const auto outcome = service.submit(request(c.name), &error);
        const auto csv = service.report(c.id, "csv");
        if (!outcome || !outcome->cached)
          lane.failures.push_back(c.name + ": resubmission not served from cache");
        else if (!csv || *csv != c.csv)
          lane.failures.push_back(c.name + ": cached report bytes differ");
        else
          lane.counts.add("service.cached", 1);  // Counted, not timed per call.
      });
  Pass pass = Pass::merge(lanes, wall);
  pass.counts.add("service.submits", pass.attempted);
  return pass;
}

/// The correctness gate: every completed job's report bytes must equal an
/// in-process sweep::run_sweep of the same generated spec. Traced runs also
/// drive trial 0 of each job phase by phase and check it against
/// CampaignRunner::run_trial_group and against the job's own records.
Pass verify(const SweepJobs& jobs, const std::map<std::uint64_t, Completed>& done,
            const Options& options, bool traced) {
  std::vector<std::pair<std::uint64_t, const Completed*>> items;
  for (const auto& [op, c] : done) items.emplace_back(op, &c);
  const std::uint32_t workers = worker_count(options);
  std::vector<Pass> lanes(workers);
  const double wall = closed_loop(
      workers, 0.0, items.size(), items.size(),
      [&](std::uint32_t w, std::uint64_t i) {
        Pass& lane = lanes[w];
        const auto [op, completed] = items[i];
        const bool in_window = op < kDaemonWindow;
        const ex::sweep::SweepSpec& spec = jobs.sweeps.all()[op];
        ex::sweep::SweepRunOptions run;
        run.threads = 1;
        if (traced) {  // Checkpoint every point, as the daemon does.
          run.checkpoint_path = options.scratch + "/oracle-" +
                                std::to_string(op) + ".ckpt";
          run.resume = true;
        }
        std::string error;
        std::optional<ex::sweep::SweepResult> result;
        {
          std::optional<Trace::Span> span;
          if (traced) span.emplace(lane.spans, "sweep.run_sweep");
          result = ex::sweep::run_sweep(spec, jobs.scenarios, run, &error);
        }
        if (!result) {
          lane.failures.push_back(spec.name + ": in-process sweep failed: " + error);
          return;
        }
        if (ex::sweep::sweep_csv(*result) != completed->csv ||
            ex::sweep::sweep_markdown(*result) != completed->md) {
          lane.failures.push_back(spec.name +
                                  ": report bytes differ from in-process sweep");
          return;
        }
        if (in_window) {
          lane.counts.add("sweep.points", result->records.size());
          for (const ex::sweep::PointRecord& record : result->records)
            for (const ex::sweep::TrialRow& row : record.trials)
              count_trial(row, lane.counts);
        }
        if (!traced) return;
        const ex::attack::RunnerConfig base =
            result->points.front().scenario.runner_config();
        std::vector<ex::attack::CampaignConfig> variants;
        for (const ex::sweep::SweepPoint& point : result->points)
          variants.push_back(point.scenario.runner_config().campaign);
        std::vector<ex::attack::CampaignReport> reports;
        {
          Trace::Span root(lane.spans, "oracle");
          reports = traced_trial_group(base, variants, 0, lane.spans,
                                       in_window ? &lane.counts : nullptr);
        }
        const auto expected =
            ex::attack::CampaignRunner::run_trial_group(base, variants, 0);
        for (std::size_t p = 0; p < reports.size(); ++p) {
          if (stable_fields(reports[p]) != stable_fields(expected[p]) ||
              !(ex::sweep::TrialRow::from_report(reports[p]) ==
                result->records[p].trials.front())) {
            lane.failures.push_back(spec.name +
                                    ": phase-driven trial differs from the job");
            return;
          }
        }
      });
  return Pass::merge(lanes, wall);
}

/// A spool directory under the scratch directory, removed on scope exit.
struct Spool {
  explicit Spool(const Options& options, int k)
      : path(options.scratch + "/spool-" + std::to_string(getpid()) + "-" +
             std::to_string(k)) {
    std::filesystem::remove_all(path);
  }
  ~Spool() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;
  std::string path;
};

std::unique_ptr<Service> start_service(const Spool& spool, const SweepJobs& jobs,
                                       std::uint32_t workers,
                                       ex::io::FileSystem* fs) {
  ex::service::ServiceOptions so;
  so.spool_dir = spool.path;
  so.workers = workers;
  so.fs = fs;
  auto service = std::make_unique<Service>(so, jobs.scenarios, jobs.sweeps);
  std::string error;
  if (!service->start(&error))
    throw std::runtime_error("service did not start: " + error);
  return service;
}

}  // namespace

RunResult run_daemon(const Options& options) {
  RunResult result;
  std::filesystem::create_directories(options.scratch);
  // Half the threads execute jobs, the other half are clients, so the
  // whole run stays within the worker budget.
  const std::uint32_t budget = std::max<std::uint32_t>(2, worker_count(options));
  const std::uint32_t service_workers = budget / 2;
  const std::uint32_t clients = budget - service_workers;

  // Set-up: generate and register the jobs, start the service on an empty
  // spool. Repeated so the reported median is steady; the last is used.
  std::vector<double> setup_s;
  std::unique_ptr<SweepJobs> jobs;
  std::unique_ptr<Service> service;
  std::unique_ptr<Spool> spool;
  for (int k = 0; k < 7; ++k) {
    service.reset();
    spool = std::make_unique<Spool>(options, k);
    const auto t0 = Clock::now();
    jobs = std::make_unique<SweepJobs>(make_sweep_jobs(options.seed, kJobPool));
    service = start_service(*spool, *jobs, service_workers, nullptr);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  const double first_s = options.seconds * kFirstPassShare;
  if (!options.trace) {
    const Pass first = first_pass(*service, *jobs, clients, first_s, false);
    const Pass cached =
        cached_pass(*service, first.out, clients, options.seconds - first_s);
    const double rss = peak_rss_mib();
    service->shutdown(Service::Shutdown::kDrain);
    const Pass checked = verify(*jobs, first.out, options, false);
    for (const Pass* p : {&first, &cached, &checked}) p->tally(result);
    result.set("op_p50_ms", median(first.latency_ms), "ms");
    result.set("op_p90_ms", quantile(first.latency_ms, 0.9), "ms");
    result.samples["op_p50_ms"] = result.samples["op_p90_ms"] =
        first.latency_ms.size();
    const std::uint64_t served = cached.counts.count("service.cached");
    result.set("ops_per_s", cached.wall_s > 0 ? served / cached.wall_s : 0.0,
               "1/s");
    result.samples["ops_per_s"] = served;
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mib", rss, "MiB");
    for (const auto& [op, c] : first.out)
      if (op < kDaemonWindow) result.digest = fnv1a(c.csv + c.md, result.digest);
    keep_counts(checked.counts, false, result);
    result.counts["sweep.points"] = checked.counts.count("sweep.points");
  } else {
    // Untraced first pass on the real filesystem: the overhead baseline.
    const double part = options.seconds * (kFirstPassShare / 2);
    const Pass plain = first_pass(*service, *jobs, clients, part, false);
    service->shutdown(Service::Shutdown::kDrain);
    service.reset();

    // Traced: a fresh spool behind the counting filesystem, the same jobs.
    CountingFs fs(ex::io::real());
    Spool traced_spool(options, 99);
    service = start_service(traced_spool, *jobs, service_workers, &fs);
    const Pass first = first_pass(*service, *jobs, clients, part, true);
    std::vector<std::string> window_ids;
    for (const auto& [op, c] : first.out)
      if (op < kDaemonWindow) window_ids.push_back(c.id);
    const CountingFs::Totals window_io = fs.totals_for(window_ids);
    const Pass cached =
        cached_pass(*service, first.out, clients, options.seconds - first_s);
    service->shutdown(Service::Shutdown::kDrain);
    const Pass checked = verify(*jobs, first.out, options, true);
    for (const Pass* p : {&plain, &first, &cached, &checked}) p->tally(result);

    Trace spans = first.spans;
    spans.merge(checked.spans);
    Trace counts = checked.counts;
    counts.merge(first.counts);
    counts.merge(cached.counts);
    counts.add("service.executions", service->executions());
    counts.add("io.ops", window_io.ops);
    counts.add("io.syncs", window_io.syncs);
    counts.add("io.write_bytes", window_io.write_bytes);
    emit_layers(spans, first.latency_ms.size(), counts, result);
    // The syncs run inside service.submit and, on the service's workers,
    // during service.wait: a share of those spans, not time of its own.
    result.set("io.sync_ms",
               window_ids.empty() ? 0.0 : window_io.sync_ms / window_ids.size(),
               "ms");
    result.set("trace.overhead_ms",
               median(first.latency_ms) - median(plain.latency_ms), "ms");
    for (const auto& [op, c] : first.out)
      if (op < kDaemonWindow) result.digest = fnv1a(c.csv + c.md, result.digest);
    keep_counts(counts, true, result);
    for (const char* name : {"sweep.points", "io.ops", "io.syncs", "io.write_bytes"})
      result.counts[name] = counts.count(name);
    service.reset();  // Before `fs` goes out of scope.
  }
  result.digest_ops = kDaemonWindow;
  return result;
}

}  // namespace perfbench
