// The baseline the paper contrasts ExplFrame against: blind unprivileged
// hammering with no frame steering, on the machines and hammer budget of
// the registered `aes-single-flip` scenario.
#include <vector>

#include "attack/spray.hpp"
#include "exp/bodies.hpp"
#include "scenario/registry.hpp"
#include "support/stats.hpp"

namespace explframe::exp {

std::vector<Section> spray_baseline() {
  const scenario::Scenario& s = scenario::builtin_scenario("aes-single-flip");
  const attack::RunnerConfig runner = s.runner_config();
  std::size_t corrupted = 0;
  Samples flips;
  for (std::uint32_t i = 0; i < s.trials; ++i) {
    kernel::SystemConfig sys_cfg = runner.system;
    sys_cfg.seed = s.seed + i;
    kernel::System sys(sys_cfg);
    attack::SprayConfig cfg;
    cfg.buffer_bytes = s.buffer_mib * kMiB;
    cfg.hammer_iterations = s.hammer_iterations;
    cfg.pairs = 32;
    cfg.seed = s.seed + i;
    const auto r = attack::SprayBaseline(sys, cfg).run();
    corrupted += r.victim_corrupted;
    flips.add(static_cast<double>(r.flips_anywhere));
  }
  Table t({"metric", "value"});
  t.row("P(victim S-box corrupted)", rate_cell_wide(corrupted, s.trials));
  t.row("mean flips induced anywhere", flips.mean());
  return {{"Spray baseline on the " + std::to_string(s.trials) +
               " `aes-single-flip` machines (same hammer budget, no "
               "steering)",
           std::move(t),
           "Paper claim: ExplFrame turns an untargeted fault primitive into "
           "a targeted one — the baseline flips bits *somewhere* but "
           "(almost) never in the victim's single page."}};
}

}  // namespace explframe::exp
