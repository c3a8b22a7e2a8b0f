// The debugger observes the attack the runner reports: for EVERY
// registered scenario, a scenario::DebugSession stepped to done() holds a
// report equal, field for field, to CampaignRunner::run_trial's for the
// same trial — total_time and template_time included. The session
// snapshots the machine after every event, so this also certifies that
// capturing snapshots never perturbs the trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../attack/report_equal.hpp"
#include "attack/campaign_runner.hpp"
#include "scenario/debug.hpp"
#include "scenario/registry.hpp"

namespace explframe::scenario {
namespace {

TEST(DebugDifferential, SteppedSessionMatchesRunTrialForEveryScenario) {
  for (const Scenario& s : Registry::builtin().all()) {
    const attack::RunnerConfig cfg = s.runner_config();
    const std::uint32_t trials = std::min(cfg.trials, 2u);
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      DebugSession session(s, trial);
      while (!session.done()) session.step();
      const attack::CampaignReport expected =
          attack::CampaignRunner::run_trial(cfg, trial);
      EXPECT_REPORTS_EQUAL(session.report(), expected,
                           s.name + " trial " + std::to_string(trial));
    }
  }
}

}  // namespace
}  // namespace explframe::scenario
