// The paper's attacker "allocates a large memory and starts the Rowhammer
// process" (§VI). The two practical ways to do that without pagemap:
//   * contiguous double-sided: assume VA->PA contiguity, discover the bank
//     stride by timing, hammer row neighbours directly;
//   * random same-bank pairs (Kim'14 style): timing-verified random pairs,
//     full-buffer rescans.
// Compared on hammer sessions and simulated time to the first flip, under
// both a linear bank function and Intel-style XOR bank hashing (which
// defeats stride discovery entirely).
#include <string>
#include <vector>

#include "attack/templating.hpp"
#include "exp/bodies.hpp"
#include "support/stats.hpp"

namespace explframe::exp {

using namespace explframe::attack;

namespace {

constexpr std::uint32_t kTrials = 6;
constexpr std::uint32_t kMaxSessions = 256;

/// One machine's scan report, reduced to the first vulnerable page.
struct Outcome {
  bool found = false;
  double sessions = 0;
  double sim_seconds = 0;
};

Outcome run_one(TemplateStrategy strategy, dram::MappingScheme mapping,
                std::uint64_t seed) {
  kernel::SystemConfig sys_cfg =
      small_machine(scenario::WeakCellProfile::kVulnerable, seed);
  sys_cfg.dram.mapping = mapping;
  kernel::System sys(sys_cfg);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg;
  cfg.strategy = strategy;
  cfg.buffer_bytes = 4 * kMiB;
  cfg.hammer_iterations = 100'000;
  cfg.stop_after = 1;  // stop at the first vulnerable page
  cfg.max_rows = kMaxSessions;
  cfg.seed = seed;
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  Outcome o;
  o.found = !report.flips.empty();
  o.sessions = static_cast<double>(report.rows_scanned);
  o.sim_seconds = static_cast<double>(report.elapsed) / kSecond;
  return o;
}

/// A mean over the machines that found a page; "-" when none did.
std::string mean_cell(const Samples& s) {
  return s.empty() ? "-" : Table::to_cell(s.mean());
}

}  // namespace

std::vector<Section> templating_strategies() {
  struct RowSpec {
    const char* strategy_name;
    TemplateStrategy strategy;
    const char* mapping_name;
    dram::MappingScheme mapping;
  };
  const RowSpec rows[] = {
      {"contiguous double-sided", TemplateStrategy::kContiguousDoubleSided,
       "linear (row-major)", dram::MappingScheme::kRowMajor},
      {"contiguous double-sided", TemplateStrategy::kContiguousDoubleSided,
       "XOR bank hashing", dram::MappingScheme::kBankXor},
      {"random same-bank pairs", TemplateStrategy::kRandomPairs,
       "linear (row-major)", dram::MappingScheme::kRowMajor},
      {"random same-bank pairs", TemplateStrategy::kRandomPairs,
       "XOR bank hashing", dram::MappingScheme::kBankXor},
  };

  Table t({"strategy", "bank function", "P(found)", "mean sessions",
           "mean simulated s"});
  for (const RowSpec& spec : rows) {
    std::size_t found = 0;
    Samples sessions, secs;
    for (std::uint32_t i = 0; i < kTrials; ++i) {
      const auto o = run_one(spec.strategy, spec.mapping, 900 + i);
      found += o.found;
      if (o.found) {
        sessions.add(o.sessions);
        secs.add(o.sim_seconds);
      }
    }
    t.row(spec.strategy_name, spec.mapping_name,
          Table::percent(wilson_interval(found, kTrials).p),
          mean_cell(sessions), mean_cell(secs));
  }
  return {{"Time and sessions to the first vulnerable page (" +
               std::to_string(kTrials) + " machines per row, budget " +
               std::to_string(kMaxSessions) + " sessions)",
           std::move(t),
           "Notes: (1) under XOR bank hashing the smallest conflicting "
           "stride is a whole bank sweep times the bank count, so the "
           "contiguous strategy hammers rows far from its scan target and "
           "silently finds nothing (`-`: no machine found a page); random "
           "pairs are mapping-agnostic. (2) random pairs look cheap per "
           "session here because the full-buffer rescan runs on the cached "
           "data path (free in simulated time); on real hardware those "
           "rescans dominate, which is why targeted double-sided templating "
           "won once reverse-engineered maps became available."}};
}

}  // namespace explframe::exp
