// sweep::Registry — the named ablation-grid catalogue.
//
// The sweep-level mirror of scenario::Registry: Registry::builtin() holds
// the paper's headline ablations as declarative SweepSpec entries, and
// `explsim sweep` (list/describe/run/all) looks grids up here. Adding an
// ablation is one registration; it immediately appears in `explsim sweep
// list` and the generated docs/results/sweeps/ pages. A spec is expanded
// against the scenario registry it runs with, when it runs: run_sweep
// reports an expansion error, and the registry tests expand every builtin.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/spec.hpp"

namespace explframe::sweep {

/// An ordered, name-unique collection of sweep specs.
class Registry {
 public:
  /// The built-in catalogue (built once, immutable, program lifetime).
  static const Registry& builtin();

  /// Register `spec`; its name must be a unique valid key (CHECK-enforced).
  void add(SweepSpec spec);

  /// Sweep named `name`, or nullptr. O(1): a name index kept by add().
  const SweepSpec* find(const std::string& name) const noexcept;

  /// All sweeps, in registration order (== handbook order).
  const std::vector<SweepSpec>& all() const noexcept { return sweeps_; }

 private:
  std::vector<SweepSpec> sweeps_;
  std::unordered_map<std::string, std::size_t> index_;  ///< name -> slot.
};

/// Convenience: the built-in sweep `name`; CHECK-fails if absent (for
/// benches whose sweep is part of their contract).
const SweepSpec& builtin_sweep(const std::string& name);

}  // namespace explframe::sweep
