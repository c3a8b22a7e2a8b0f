// scenario::Registry — the named experiment catalogue.
//
// Registry::builtin() holds the paper's headline experiments plus the
// extension studies as declarative Scenario entries; `explsim` (and any
// bench or example that wants a canonical configuration) looks experiments
// up here instead of hand-wiring SystemConfig/CampaignConfig fields.
// Adding an experiment is one registration, and it immediately appears in
// `explsim list`, `explsim all` and the generated docs/results/ handbook.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/scenario.hpp"

namespace explframe::scenario {

/// An ordered, name-unique collection of scenarios.
class Registry {
 public:
  /// The built-in catalogue (built once, immutable, program lifetime).
  static const Registry& builtin();

  /// Register `s`; the name must be unique within this registry.
  void add(Scenario s);

  /// Scenario named `name`, or nullptr. O(1): a name index kept by add().
  const Scenario* find(const std::string& name) const noexcept;

  /// All scenarios, in registration order (== handbook order).
  const std::vector<Scenario>& all() const noexcept { return scenarios_; }

 private:
  std::vector<Scenario> scenarios_;
  std::unordered_map<std::string, std::size_t> index_;  ///< name -> slot.
};

/// Convenience: the built-in scenario `name`; CHECK-fails if absent (for
/// benches/examples whose scenario is part of their contract).
const Scenario& builtin_scenario(const std::string& name);

}  // namespace explframe::scenario
