// tests/race/ — service::Service under the race-detector leg.
//
// An in-process resubmission resolves its job id through the Service's
// per-name memo and reads the job's state from the queue, while the
// workers claim, run and complete the very jobs being resubmitted. This test storms one scenario job and one sweep job from
// several clients, during the run and again after it, so the TSan CI leg
// watches the id memo, the queue's job table and the done-cache check
// under real contention.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "service/service.hpp"
#include "support/check.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace explframe::service {
namespace {

constexpr int kClients = 4;
constexpr int kRounds = 50;

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// Two points of one quickstart trial each: small enough for TSan.
const sweep::Registry& sweeps() {
  static const sweep::Registry registry = [] {
    const auto spec = sweep::SweepSpec::from_sweep(
        "name = race-pair\n"
        "title = TSan service pair\n"
        "base = quickstart\n"
        "base.trials = 1\n"
        "axis.defence = none,trr\n");
    EXPLFRAME_CHECK(spec.has_value());
    sweep::Registry r;
    r.add(*spec);
    return r;
  }();
  return registry;
}

JobRequest request(JobKind kind, const std::string& name) {
  JobRequest r;
  r.kind = kind;
  r.name = name;
  r.threads = 1;
  return r;
}

/// Every client submits both jobs kRounds times; outcomes per client, in
/// order. A rejected submission records an empty id.
std::vector<std::vector<SubmitOutcome>> storm(Service& service,
                                              const JobRequest& scn,
                                              const JobRequest& swp) {
  std::vector<std::vector<SubmitOutcome>> seen(kClients);
  std::vector<std::thread> clients;
  for (auto& out : seen)
    clients.emplace_back([&service, &scn, &swp, &out] {
      for (int round = 0; round < kRounds; ++round)
        for (const JobRequest* r : {&scn, &swp})
          out.push_back(service.submit(*r).value_or(SubmitOutcome{}));
    });
  for (std::thread& client : clients) client.join();
  return seen;
}

TEST(ServiceRace, ResubmissionStormsResolveOneIdAndExecuteOnce) {
  const std::string spool =
      (std::filesystem::path(::testing::TempDir()) / "svc-race").string();
  std::filesystem::remove_all(spool);
  ServiceOptions options;
  options.spool_dir = spool;
  options.workers = 2;
  Service service(std::move(options), scenarios(), sweeps());
  std::string error;
  ASSERT_TRUE(service.start(&error)) << error;

  const JobRequest scn = request(JobKind::kScenario, "quickstart");
  const JobRequest swp = request(JobKind::kSweep, "race-pair");
  const auto scn_id = job_id(scn, scenarios(), sweeps());
  const auto swp_id = job_id(swp, scenarios(), sweeps());
  ASSERT_TRUE(scn_id.has_value());
  ASSERT_TRUE(swp_id.has_value());

  const auto during = storm(service, scn, swp);
  service.drain();
  const auto after = storm(service, scn, swp);
  service.shutdown(Service::Shutdown::kDrain);

  int accepted[2] = {0, 0};
  for (const auto* pass : {&during, &after})
    for (const auto& client : *pass) {
      ASSERT_EQ(client.size(), 2u * kRounds);
      for (std::size_t i = 0; i < client.size(); ++i) {
        const SubmitOutcome& outcome = client[i];
        EXPECT_EQ(outcome.id, i % 2 == 0 ? *scn_id : *swp_id);
        EXPECT_EQ(outcome.accepted + outcome.deduped + outcome.cached, 1);
        accepted[i % 2] += outcome.accepted ? 1 : 0;
        if (pass == &after) {
          EXPECT_TRUE(outcome.cached);
        }
      }
    }
  // One submission created each job, and each ran exactly once.
  EXPECT_EQ(accepted[0], 1);
  EXPECT_EQ(accepted[1], 1);
  EXPECT_EQ(service.executions(), 2u);
  for (const std::string& id : {*scn_id, *swp_id}) {
    const auto job = service.status(id);
    ASSERT_TRUE(job.has_value()) << id;
    EXPECT_EQ(job->state, JobState::kDone);
    EXPECT_EQ(job->attempts, 1u);
    EXPECT_TRUE(service.report(id, "md").has_value()) << id;
  }
}

}  // namespace
}  // namespace explframe::service
