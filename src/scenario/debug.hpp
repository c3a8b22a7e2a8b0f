// scenario::DebugSession — time-travel debugging for one campaign trial.
//
// `explsim debug <scenario>` reproduces exactly one trial of a registered
// scenario (the same per-trial seed derivation CampaignRunner uses) and
// then executes the post-templating attack one *event* at a time — plant,
// noise (when configured), steer, hammer, harvest — capturing a machine
// snapshot after every step onto a snap::Timeline. Each event is one of
// attack::TemplatedCampaign's own phase steps, the ones run_fork chains.
// Because restores are exact, the session can rewind to any earlier event
// and replay, and every replay is bit-identical: the debugger observes the
// same attack the campaign runner reports, never a perturbed one.
//
// The headline query is bisect_flip(byte): restore the post-steer layer
// and binary-search the hammer iteration count for the first iteration at
// which the chosen victim-table byte leaves its canonical value — i.e.
// pinpoint the exact event that corrupts the byte — then restore the
// session to where the user was standing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/campaign_runner.hpp"
#include "scenario/scenario.hpp"
#include "snapshot/timeline.hpp"

namespace explframe::scenario {

/// One interactive debugging session over one (scenario, trial) pair. The
/// session owns its simulated machine; constructing it runs setup and
/// templating (the part `rewind` cannot cross — layer 0 is post-template).
class DebugSession {
 public:
  /// Builds trial `trial`'s machine and runs templating on it.
  DebugSession(const Scenario& scenario, std::uint32_t trial);

  /// Post-templating event names in execution order ("plant", "noise" when
  /// the scenario configures contention, "steer", "hammer", "harvest").
  const std::vector<std::string>& events() const noexcept { return events_; }
  /// Events executed so far (== snapshot layers above the base layer).
  std::size_t position() const noexcept { return position_; }
  /// True once every event ran (or templating found nothing to attack).
  bool done() const noexcept { return position_ == events_.size(); }
  /// Whether templating produced an attackable flip at all.
  bool template_found() const noexcept;

  /// Execute the next event, push a snapshot layer, return a one-line
  /// human description of what happened. CHECK-fails when done().
  std::string step();
  /// Step until just after the event named `name`. Nullopt + `error` when
  /// the name is unknown or already behind the current position.
  bool run_until(const std::string& name, std::string* error);
  /// Rewind `count` events (snapshot-exact). False + `error` when count
  /// exceeds the current position.
  bool rewind(std::size_t count, std::string* error);

  /// Multi-line position + report-so-far summary.
  std::string status() const;

  /// Binary-search the first hammer iteration that corrupts victim-table
  /// byte `byte_index` (restoring the post-steer layer for every probe,
  /// then restoring the caller's position). Requires the steer event to
  /// have executed; nullopt + `error` otherwise, or when the byte never
  /// leaves its canonical value within the scenario's hammer budget.
  std::optional<std::string> bisect_flip(std::uint32_t byte_index,
                                         std::string* error);

  /// The report as accumulated by the events executed so far.
  const attack::CampaignReport& report() const noexcept {
    return reports_[position_];
  }

 private:
  /// Timeline index of the layer captured after event `name` (layer 0 is
  /// "post-template"); nullopt when that event has not executed.
  std::optional<std::size_t> layer_of(const std::string& name) const;

  std::string scenario_name_;
  std::uint32_t trial_ = 0;
  attack::RunnerConfig runner_;       ///< The lowered scenario.
  attack::CampaignConfig campaign_cfg_;  ///< With the derived trial seed.
  std::unique_ptr<kernel::System> system_;
  std::unique_ptr<attack::TemplatedCampaign> campaign_;
  std::unique_ptr<snap::Timeline> timeline_;
  std::vector<std::string> events_;
  /// reports_[i] is the report after i events (parallel to the timeline's
  /// layers), so a rewind restores the report alongside the machine.
  std::vector<attack::CampaignReport> reports_;
  std::size_t position_ = 0;
};

/// Outcome of one REPL command line (see execute_debug_command).
struct DebugCommandOutcome {
  /// What the line was: a command that ran, a rejected line (unknown
  /// command / bad arguments — `output` holds a non-empty diagnostic), a
  /// quit request, or whitespace to ignore.
  enum class Kind { kOk, kError, kQuit, kEmpty };
  Kind kind = Kind::kOk;
  /// Human-readable result (step lines, status, help, or the error text).
  std::string output;
};

/// Parse and execute one `explsim debug` REPL line against `session`.
/// This IS the REPL command parser (the explsim binary is a thin
/// print/readline wrapper around it), factored into the library so it can
/// be property-tested: it never throws or crashes on arbitrary input, and
/// every rejected line yields Kind::kError with a non-empty diagnostic.
DebugCommandOutcome execute_debug_command(DebugSession& session,
                                          const std::string& line);

}  // namespace explframe::scenario
