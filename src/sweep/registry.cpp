#include "sweep/registry.hpp"

#include "support/check.hpp"

namespace explframe::sweep {

void Registry::add(SweepSpec spec) {
  EXPLFRAME_CHECK_MSG(KvFile::valid_key(spec.name),
                      "sweep name must be a valid identifier");
  const bool fresh = index_.emplace(spec.name, sweeps_.size()).second;
  EXPLFRAME_CHECK_MSG(fresh, "duplicate sweep name");
  sweeps_.push_back(std::move(spec));
}

namespace {

/// Builtin sweeps are authored as literal `.sweep` documents — the same
/// text a user would put in a file — so the parser is exercised on every
/// start-up and `describe` prints exactly what was registered.
SweepSpec parse_builtin(const char* text) {
  std::string error;
  const auto spec = SweepSpec::from_sweep(text, &error);
  EXPLFRAME_CHECK_MSG(spec.has_value(), "builtin sweep failed to parse");
  return *spec;
}

Registry make_builtin() {
  Registry reg;

  reg.add(parse_builtin(R"(
# Flips-vs-budget: how many hammer activations per row the attack needs.
name = aes-budget-curve
title = AES key-recovery rate vs per-row hammer budget
description = The paper's cost axis: the same single-flip AES campaign under a per-row activation budget swept from far below the weakest cell's disturbance threshold to 2x the stock budget. Below ~25k activations no weak cell can cross its threshold, so templating finds nothing; the curve shows where the success probability turns on and saturates. Seeds are derived per point, modelling independent machine populations at each budget.
paper_ref = SVI (hammer budget discussion, EXP-T4/T8)
base = aes-single-flip
seed_mode = derived
base.trials = 6
base.max_rows = 192
axis.hammer_iterations = 12500:200000:x2
)"));

  reg.add(parse_builtin(R"(
# PFA data complexity on PRESENT: ciphertexts vs recovery rate.
name = present-budget-curve
title = PRESENT key-recovery rate vs ciphertext budget
description = The data-complexity curve for PRESENT-80: with a planted single-bit table fault, how many faulty ciphertexts does persistent fault analysis need before the residual key-schedule search closes? The harvest budget is swept from 125 to 2000 ciphertexts; the 16-byte table window (4 live bits per entry) makes low budgets fail in key recovery rather than templating.
paper_ref = SVI (EXP-T7, data complexity)
base = present-single-flip
seed_mode = derived
base.trials = 6
base.max_rows = 192
axis.ciphertext_budget = 125:2000:x2
)"));

  reg.add(parse_builtin(R"(
# The defence ablation as one paired grid instead of four scenarios.
name = defence-grid
title = Key recovery under each hardware mitigation and module profile
description = The countermeasure grid: every combination of DRAM mitigation (none, TRR, ECC, both) and module weak-cell profile (realistic DDR3 part vs the highly vulnerable part the paper attacks). Seeds are shared across points, so each cell of the grid attacks the same per-trial machines and the table reads as a paired ablation: TRR starves templating, ECC corrects the planted flip on read, and either alone already stops the single-flip attack.
paper_ref = SVII (countermeasure discussion, EXP-D1)
base = defence-none
seed_mode = shared
base.trials = 6
axis.defence = none,trr,ecc,trr+ecc
axis.weak_cells = realistic,vulnerable
)"));

  reg.add(parse_builtin(R"(
# Templating cost frontier: row budget x polarity coverage.
name = templating-frontier
title = Templating success frontier: row budget x polarity coverage
description = What the templating phase buys per unit of work: the attacker's candidate-row budget swept 16..256 rows, crossed with whether the scan hammers both data polarities or only one. Shared seeds pair every cell against the same machines, so the frontier isolates the budget effect: more rows monotonically help, and single-polarity scans need roughly twice the rows to find a usable onto-table flip.
paper_ref = SVI (templating cost discussion, EXP-T8)
base = templating-budget-tight
seed_mode = shared
base.trials = 6
axis.max_rows = 16,32,64,128,256
axis.both_polarities = false,true
)"));

  return reg;
}

}  // namespace

const SweepSpec* Registry::find(const std::string& name) const noexcept {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &sweeps_[it->second];
}

const Registry& Registry::builtin() {
  static const Registry registry = make_builtin();
  return registry;
}

const SweepSpec& builtin_sweep(const std::string& name) {
  const SweepSpec* spec = Registry::builtin().find(name);
  EXPLFRAME_CHECK_MSG(spec != nullptr, "no such built-in sweep");
  return *spec;
}

}  // namespace explframe::sweep
