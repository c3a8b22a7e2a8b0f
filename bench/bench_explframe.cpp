// EXP-T4 — the spray baseline the headline experiment of the DATE'20 paper
// contrasts ExplFrame against: blind unprivileged hammering with no frame
// steering, on the same machine and hammer budget. The ExplFrame side —
// template -> plant (munmap) -> steer -> re-hammer -> harvest ciphertexts
// -> PFA key recovery, per phase, with trials/sec — is the registered
// scenario: `explsim run aes-single-flip`.
//
//   $ ./bench_explframe [--format=ascii|markdown|csv]
#include <cstring>
#include <iostream>
#include <string>

#include "attack/spray.hpp"
#include "scenario/registry.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace explframe;
using namespace explframe::attack;

namespace {

TableFormat g_format = TableFormat::kAscii;

void run_spray_baseline() {
  // The registered scenario's machine: the baseline hammers exactly what
  // `explsim run aes-single-flip` attacks.
  const scenario::Scenario& s = scenario::builtin_scenario("aes-single-flip");
  const RunnerConfig runner = s.runner_config();
  const std::uint32_t trials = s.trials;
  std::cout << "\nSpray baseline (blind unprivileged Rowhammer, same hammer "
               "budget, no steering), "
            << trials << " machines:\n";
  std::size_t corrupted = 0;
  Samples flips;
  for (std::uint32_t i = 0; i < trials; ++i) {
    kernel::SystemConfig sys_cfg = runner.system;
    sys_cfg.seed = s.seed + i;
    kernel::System sys(sys_cfg);
    SprayConfig cfg;
    cfg.buffer_bytes = s.buffer_mib * kMiB;
    cfg.hammer_iterations = s.hammer_iterations;
    cfg.pairs = 32;
    cfg.seed = s.seed + i;
    SprayBaseline spray(sys, cfg);
    const auto r = spray.run();
    corrupted += r.victim_corrupted;
    flips.add(static_cast<double>(r.flips_anywhere));
  }
  Table t({"metric", "value"});
  t.row("P(victim S-box corrupted)", rate_cell_wide(corrupted, trials));
  t.row("mean flips induced anywhere", flips.mean());
  t.print(std::cout, g_format);
  std::cout << "\npaper claim: ExplFrame turns an untargeted fault primitive "
               "into a targeted one — the baseline flips bits *somewhere* "
               "but (almost) never in the victim's single page.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0] << " [--format=ascii|markdown|csv]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) != 0) {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    }
    const std::string value = arg.substr(std::strlen("--format="));
    const auto format = try_parse_table_format(value);
    if (!format) {
      std::cerr << "unknown table format '" << value << "'\n";
      return usage();
    }
    g_format = *format;
  }
  print_banner(std::cout,
               "EXP-T4: end-to-end ExplFrame vs spray baseline (SV+SVI)");
  std::cout << "\nExplFrame end-to-end: run `explsim run aes-single-flip` "
               "(same scenario; phase table, means and trials/sec).\n";
  run_spray_baseline();
  return 0;
}
