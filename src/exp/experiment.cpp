#include "exp/experiment.hpp"

#include <sstream>

#include "exp/bodies.hpp"
#include "support/units.hpp"

namespace explframe::exp {

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> registry = {
      {.name = "buddy-trace",
       .title = "Buddy allocation: the split and coalesce paths",
       .paper_ref = "SIII, Fig. 1",
       .description =
           "A 4096-page buddy allocator serves one order-0 request: the "
           "trace shows the block it splits down, then the free that "
           "coalesces it back, and the paper's 1 MiB (order-8) example.",
       .run = buddy_trace},
      {.name = "zone-carving",
       .title = "Components of the zoned page frame allocator",
       .paper_ref = "SIII, Fig. 2",
       .description =
           "Zone carving per machine size and architecture, the zonelist "
           "fallback order per allocation class, fallback under memory "
           "pressure, and the per-CPU page frame cache inside each zone.",
       .run = zone_carving},
      {.name = "pcp-reuse",
       .title = "Per-CPU page frame cache reuse probability",
       .paper_ref = "SV",
       .description =
           "One task releases a frame, another requests a few pages: how "
           "often the released frame comes straight back, against request "
           "size, intervening noise and the allocating CPU.",
       .run = pcp_reuse},
      {.name = "frame-steering",
       .title = "Cross-process page-frame steering",
       .paper_ref = "SV",
       .description =
           "The attacker releases frames, then the victim installs its "
           "AES S-box: the probability that the S-box page lands on a "
           "planted frame.",
       .run = frame_steering},
      {.name = "rowhammer",
       .title = "Rowhammer characterisation of the DRAM model",
       .paper_ref = "SVI",
       .description =
           "Flips against hammer budget (double- vs single-sided), "
           "templating yield against module vulnerability, and flip "
           "reproducibility at the same cell across repeated hammering.",
       .run = rowhammer},
      {.name = "spray-baseline",
       .title = "Spray baseline: blind Rowhammer without frame steering",
       .paper_ref = "SV-SVI",
       .description =
           "Unprivileged hammering of random pairs on the machines "
           "`aes-single-flip` attacks, with the same hammer budget but no "
           "steering: it flips bits somewhere, almost never in the "
           "victim's page. The ExplFrame side is `explsim run "
           "aes-single-flip`.",
       .run = spray_baseline},
      {.name = "pfa-complexity",
       .title = "PFA data complexity on AES-128",
       .paper_ref = "ref [12] (Zhang et al., TCHES 2018)",
       .description =
           "Remaining AES-128 key space against faulty ciphertexts, and "
           "the ciphertexts needed for a unique key, over random keys and "
           "random single-bit S-box faults, through the fault::Analysis "
           "interface.",
       .run = pfa_complexity},
      {.name = "fault-techniques",
       .title = "Fault-analysis technique comparison",
       .paper_ref = "SI and conclusion, ref [12]",
       .description =
           "Why ExplFrame pairs with persistent fault analysis: PFA on a "
           "persistent S-box fault against DFA on a transient round-9 "
           "fault, and PFA on PRESENT-80 against AES-128.",
       .run = fault_techniques},
      {.name = "templating-strategies",
       .title = "Templating strategy x bank hashing",
       .paper_ref = "SVI (templating cost discussion)",
       .description =
           "Sessions and simulated time to the first vulnerable page for "
           "contiguous double-sided and random same-bank templating, "
           "under a linear bank function and XOR bank hashing.",
       .run = templating_strategies},
      {.name = "design-ablations",
       .title = "Design-choice ablations",
       .paper_ref = "SV-C (attack window discussion)",
       .description =
           "The allocator behaviours the exploit relies on, switched off "
           "one at a time: LIFO pcp lists, the pcp `high` watermark, "
           "page-table charging and zero-on-allocation.",
       .run = design_ablations},
  };
  return registry;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : experiments())
    if (name == e.name) return &e;
  return nullptr;
}

std::string experiment_markdown(const Experiment& experiment,
                                const std::vector<Section>& sections) {
  std::ostringstream os;
  os << "# " << experiment.title << "\n\nExperiment `" << experiment.name
     << "` — paper ref: " << experiment.paper_ref << ".\n\n"
     << experiment.description << "\n\nReproduce with `explsim exp run "
     << experiment.name << "`.\n";
  for (const Section& s : sections) {
    os << "\n## " << s.title << "\n\n"
       << s.table.render(TableFormat::kMarkdown);
    if (!s.notes.empty()) os << "\n" << s.notes << "\n";
  }
  return os.str();
}

std::string experiments_index() {
  std::string out =
      "# Experiments\n\n"
      "One page per registered experiment, generated by `explsim exp "
      "all`: the paper's figure- and section-level measurements that are "
      "not attack campaigns. Every number is derived from the simulation "
      "alone, so regeneration is byte-identical and CI enforces it with "
      "`explsim exp all --check`, like the scenario reports one directory "
      "up.\n\n"
      "Scaling note: the paper's testbed is a multi-GiB DDR3 machine "
      "hammered for hours. The simulated experiments use 64-256 MiB of "
      "DRAM and a denser weak-cell population so each data point runs in "
      "seconds; every relative claim (who wins, which probabilities are "
      "~1 vs ~0, where the curves bend) is preserved under this "
      "scaling.\n\n";
  Table t({"experiment", "title", "paper ref", "report"});
  for (const Experiment& e : experiments()) {
    const std::string name = e.name;
    t.row("`" + name + "`", e.title, e.paper_ref, "[md](" + name + ".md)");
  }
  out += t.render(TableFormat::kMarkdown);
  out += "\n*Regenerate: `cmake --build build && ./build/explsim exp all`.*\n";
  return out;
}

kernel::SystemConfig small_machine(scenario::WeakCellProfile profile,
                                   std::uint64_t seed) {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.seed = seed;
  scenario::apply_weak_cell_profile(profile, c);
  return c;
}

}  // namespace explframe::exp
