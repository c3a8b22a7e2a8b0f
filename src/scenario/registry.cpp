#include "scenario/registry.hpp"

#include "support/check.hpp"

namespace explframe::scenario {

void Registry::add(Scenario s) {
  EXPLFRAME_CHECK_MSG(KvFile::valid_key(s.name),
                      "scenario name must be a valid identifier");
  const bool fresh = index_.emplace(s.name, scenarios_.size()).second;
  EXPLFRAME_CHECK_MSG(fresh, "duplicate scenario name");
  scenarios_.push_back(std::move(s));
}

const Scenario* Registry::find(const std::string& name) const noexcept {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &scenarios_[it->second];
}

namespace {

Registry make_builtin() {
  Registry reg;

  {
    Scenario s;
    s.name = "quickstart";
    s.title = "One end-to-end ExplFrame attack on AES-128";
    s.description =
        "The README front door: a single trial on a small vulnerable DDR3 "
        "module — template a flip, plant the frame, steer the victim's "
        "S-box onto it, re-hammer, harvest faulty ciphertexts and recover "
        "the full key with PFA.";
    s.paper_ref = "SV-SVI (pipeline overview)";
    s.trials = 1;
    s.threads = 1;
    s.seed = 3;
    reg.add(s);
  }

  {
    Scenario s;
    s.name = "aes-single-flip";
    s.title = "Single-flip PFA key recovery on AES-128 (headline)";
    s.description =
        "The paper's headline experiment: 12 independent machines, one "
        "templated bit flip each, steered into the victim's AES T-table "
        "page; persistent fault analysis recovers the 128-bit master key "
        "from a few thousand faulty ciphertexts.";
    s.paper_ref = "SVI, Table 2 (EXP-T4)";
    s.trials = 12;
    s.seed = 100;
    reg.add(s);
  }

  {
    Scenario s;
    s.name = "present-single-flip";
    s.title = "Single-flip PFA key recovery on PRESENT-80";
    s.description =
        "The title's 'block cipherS': the same campaign against PRESENT-80. "
        "The 16-byte table window (4 live bits per entry) needs a denser "
        "weak-cell module and a longer template scan, but once the fault "
        "lands PFA needs only ~100 ciphertexts plus a <=2^16 residual "
        "key-schedule search.";
    s.paper_ref = "SVI (EXP-T7)";
    s.cipher = crypto::CipherKind::kPresent80;
    s.weak_cells = WeakCellProfile::kDense;
    s.trials = 8;
    s.seed = 700;
    s.ciphertext_budget = 2000;
    reg.add(s);
  }

  {
    Scenario s;
    s.name = "aes-pfa-frequency-peak";
    s.title = "Frequency-peak PFA statistic claims keys too early";
    s.description =
        "Negative result: the simpler max-likelihood statistic (rank key "
        "bytes by the frequency peak the doubled S-box output creates) "
        "yields a full 16-byte candidate as soon as every argmax is unique "
        "— thousands of ciphertexts before the peaks are reliable. At the "
        "same harvest budget where missing-value succeeds, every trial "
        "here ends in key-mismatch, which is why the pipeline defaults to "
        "the missing-value statistic.";
    s.paper_ref = "SVI (PFA variant, ref [12])";
    s.analysis = fault::AnalysisKind::kPfaMaxLikelihood;
    s.trials = 8;
    s.seed = 210;
    reg.add(s);
  }

  // ---- Defence ablation: one knob per scenario, same seeds/budgets so the
  // four reports read as one table.
  const auto defence_scenario = [](Defence defence) {
    Scenario s;
    s.defence = defence;
    s.trials = 6;
    s.seed = 300;
    s.max_rows = 192;  // the attacker's row budget: give up, don't stall
    s.paper_ref = "SVII (countermeasure discussion, EXP-D1)";
    return s;
  };
  {
    Scenario s = defence_scenario(Defence::kNone);
    s.name = "defence-none";
    s.title = "Defence ablation baseline (no mitigation)";
    s.description =
        "Control row of the defence ablation: the vulnerable module with "
        "neither TRR nor ECC, under the same per-trial seeds and attacker "
        "budget as the mitigated runs.";
    reg.add(s);
  }
  {
    Scenario s = defence_scenario(Defence::kTrr);
    s.name = "defence-trr";
    s.title = "ExplFrame vs in-DRAM target row refresh";
    s.description =
        "TRR refreshes the neighbours of frequently-activated rows before "
        "any weak cell crosses its disturbance threshold, so templating "
        "finds nothing to plant — the attack dies in phase 1.";
    reg.add(s);
  }
  {
    Scenario s = defence_scenario(Defence::kEcc);
    s.name = "defence-ecc";
    s.title = "ExplFrame vs SECDED ECC";
    s.description =
        "Single-bit-correcting ECC repairs the flip on every read: the "
        "template scan sees clean data, and even a planted flip would be "
        "corrected when the victim loads its S-box.";
    reg.add(s);
  }
  {
    Scenario s = defence_scenario(Defence::kTrrEcc);
    s.name = "defence-trr-ecc";
    s.title = "ExplFrame vs TRR and ECC combined";
    s.description =
        "Server-grade configuration: both mitigations enabled. Either alone "
        "already stops the single-flip attack; together they leave no "
        "usable template at all.";
    reg.add(s);
  }

  // ---- Templating-cost sweep: same seeds, only the row budget moves.
  {
    Scenario s;
    s.name = "templating-budget-tight";
    s.title = "Templating cost: 64-row attacker budget";
    s.description =
        "How much templating the attack needs: the attacker gives up after "
        "64 hammered candidate rows. Compare with "
        "templating-budget-generous (same seeds, unbounded scan) to read "
        "off the success probability the budget buys.";
    s.paper_ref = "SVI (templating cost discussion, EXP-T8)";
    s.trials = 8;
    s.seed = 420;
    s.max_rows = 64;
    reg.add(s);
  }
  {
    Scenario s;
    s.name = "templating-budget-generous";
    s.title = "Templating cost: unbounded scan";
    s.description =
        "The other end of the templating-cost sweep: one full pass over the "
        "attack buffer with no row budget, same per-trial seeds as "
        "templating-budget-tight.";
    s.paper_ref = "SVI (templating cost discussion, EXP-T8)";
    s.trials = 8;
    s.seed = 420;
    s.max_rows = 0;
    reg.add(s);
  }

  {
    Scenario s;
    s.name = "contended-sleepy-attacker";
    s.title = "Failure mode: attacker sleeps through the plant window";
    s.description =
        "The pitfall the paper warns about: after releasing the vulnerable "
        "frame the attacker yields the CPU while a noisy task allocates. "
        "The noise consumes the planted frame from the page frame cache "
        "head, so the victim's table lands elsewhere and steering fails.";
    s.paper_ref = "SV-C (attack window discussion, EXP-A1)";
    s.trials = 8;
    s.seed = 500;
    s.noise_ops = 8;
    s.attacker_sleeps = true;
    reg.add(s);
  }

  return reg;
}

}  // namespace

const Registry& Registry::builtin() {
  static const Registry registry = make_builtin();
  return registry;
}

const Scenario& builtin_scenario(const std::string& name) {
  const Scenario* s = Registry::builtin().find(name);
  EXPLFRAME_CHECK_MSG(s != nullptr, "no such built-in scenario");
  return *s;
}

}  // namespace explframe::scenario
