// exp — the paper's experiments that are not attack campaigns.
//
// Scenarios (src/scenario/) and sweeps (src/sweep/) reproduce end-to-end
// attacks. The rest of the paper's artefacts are figure- and section-level
// measurements: the buddy split/coalesce trace (Fig. 1), the zone carving
// (Fig. 2), page-frame-cache reuse and frame steering (§V), Rowhammer flip
// reproducibility (§VI), PFA data complexity (ref [12]), the spray baseline
// and the design ablations. Each is one registered Experiment here: fixed
// seeds, and a run() that returns titled Table sections derived from the
// simulation alone. `explsim exp all` writes one page per experiment under
// docs/results/experiments/ and `explsim exp all --check` byte-compares
// them against the committed goldens, like the scenario and sweep pages.
#pragma once

#include <string>
#include <vector>

#include "support/table.hpp"

namespace explframe::exp {

/// One titled table of an experiment's output and the notes printed under
/// it (markdown; empty for none).
struct Section {
  std::string title;
  Table table;
  std::string notes;
};

/// A registered experiment: handbook metadata plus the body that produces
/// its sections. Bodies are deterministic: same bytes on every run.
struct Experiment {
  const char* name;
  const char* title;
  const char* paper_ref;
  const char* description;
  std::vector<Section> (*run)();
};

/// Every registered experiment, in handbook order.
const std::vector<Experiment>& experiments();

/// The experiment named `name`, or nullptr.
const Experiment* find_experiment(const std::string& name);

/// The generated page docs/results/experiments/<name>.md for one run.
std::string experiment_markdown(const Experiment& experiment,
                                const std::vector<Section>& sections);

/// The generated index docs/results/experiments/README.md.
std::string experiments_index();

}  // namespace explframe::exp
