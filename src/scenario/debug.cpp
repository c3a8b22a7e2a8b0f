#include "scenario/debug.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/units.hpp"

namespace explframe::scenario {

namespace {

std::string hex_byte(std::uint8_t value) {
  static const char* digits = "0123456789abcdef";
  return std::string("0x") + digits[value >> 4] + std::string(1, digits[value & 0xf]);
}

std::string yes_no(bool value) { return value ? "yes" : "no"; }

}  // namespace

DebugSession::DebugSession(const Scenario& scenario, std::uint32_t trial)
    : scenario_name_(scenario.name),
      trial_(trial),
      runner_(scenario.runner_config()) {
  // Exactly CampaignRunner::run_trial's machine: same derived seed pair,
  // fresh System, templating run by the TemplatedCampaign constructor.
  const auto [system_seed, campaign_seed] =
      attack::CampaignRunner::trial_seeds(runner_.seed, trial);
  kernel::SystemConfig sys_cfg = runner_.system;
  sys_cfg.seed = system_seed;
  system_ = std::make_unique<kernel::System>(sys_cfg);
  campaign_cfg_ = runner_.campaign;
  campaign_cfg_.seed = campaign_seed;
  // The timeline owns all snapshots here, so the campaign takes none.
  campaign_ = std::make_unique<attack::TemplatedCampaign>(
      *system_, campaign_cfg_, /*take_snapshot=*/false);
  timeline_ = std::make_unique<snap::Timeline>(*system_);
  timeline_->push("post-template");
  reports_.push_back(campaign_->template_result());
  if (reports_.front().template_found) {
    events_.push_back("plant");
    if (campaign_cfg_.noise_ops > 0) events_.push_back("noise");
    events_.push_back("steer");
    events_.push_back("hammer");
    events_.push_back("harvest");
  }
}

bool DebugSession::template_found() const noexcept {
  return reports_.front().template_found;
}

std::optional<std::size_t> DebugSession::layer_of(
    const std::string& name) const {
  for (std::size_t i = 0; i < timeline_->size(); ++i)
    if (timeline_->label(i) == name) return i;
  return std::nullopt;
}

std::string DebugSession::step() {
  EXPLFRAME_CHECK_MSG(!done(), "debug session has no events left to step");
  const std::string name = events_[position_];
  attack::CampaignReport report = reports_[position_];
  std::ostringstream out;
  if (name == "plant") {
    campaign_->plant(report);
    out << "plant: munmapped attacker page, frame pfn=" << report.planted_pfn
        << " now heads the per-cpu cache";
  } else if (name == "noise") {
    campaign_->noise(campaign_cfg_);
    out << "noise: ran " << campaign_cfg_.noise_ops
        << " contention ops (attacker "
        << (campaign_cfg_.attacker_sleeps ? "sleeping" : "active") << ")";
  } else if (name == "steer") {
    campaign_->steer(report);
    out << "steer: victim table landed on pfn=" << report.victim_table_pfn
        << " (planted pfn=" << report.planted_pfn
        << ") -> steered=" << yes_no(report.steered);
  } else if (name == "hammer") {
    campaign_->hammer(report);
    out << "hammer: re-hammered aggressors for "
        << campaign_cfg_.templating.hammer_iterations
        << " iterations -> fault_injected=" << yes_no(report.fault_injected)
        << ", as_predicted=" << yes_no(report.fault_as_predicted);
  } else {
    campaign_->harvest(campaign_cfg_, report);
    if (!report.steered || !report.fault_injected)
      out << "harvest: skipped (steering or fault injection already failed)";
    else
      out << "harvest: " << report.ciphertexts_used
          << " ciphertexts -> key_recovered=" << yes_no(report.key_recovered)
          << ", success=" << yes_no(report.success);
  }
  report.total_time = system_->now() - campaign_->start_time();
  ++position_;
  timeline_->push(name);
  reports_.push_back(std::move(report));
  return out.str();
}

bool DebugSession::run_until(const std::string& name, std::string* error) {
  const auto it = std::find(events_.begin(), events_.end(), name);
  if (it == events_.end()) {
    if (error) *error = "unknown event '" + name + "'";
    return false;
  }
  const std::size_t target =
      static_cast<std::size_t>(it - events_.begin()) + 1;
  if (target <= position_) {
    if (error)
      *error = "event '" + name + "' already executed (rewind to replay it)";
    return false;
  }
  while (position_ < target) step();
  return true;
}

bool DebugSession::rewind(std::size_t count, std::string* error) {
  if (count > position_) {
    if (error)
      *error = "cannot rewind " + std::to_string(count) + " event(s); only " +
               std::to_string(position_) + " executed";
    return false;
  }
  position_ -= count;
  timeline_->rewind_to(position_);
  reports_.resize(position_ + 1);
  return true;
}

std::string DebugSession::status() const {
  const attack::CampaignReport& r = report();
  std::ostringstream out;
  out << "scenario " << scenario_name_ << ", trial " << trial_ << "\n";
  if (!template_found()) {
    out << "templating found no usable flip (" << r.rows_scanned
        << " rows scanned); nothing to debug\n";
    return out.str();
  }
  out << "template: flip at page offset " << r.chosen.offset << " bit "
      << int(r.chosen.bit) << " -> table index " << r.table_index << "\n"
      << "position: " << position_ << "/" << events_.size()
      << " events executed\n";
  for (std::size_t i = 0; i < events_.size(); ++i)
    out << "  [" << (i < position_ ? 'x' : ' ') << "] " << events_[i] << "\n";
  out << "report so far: steered=" << yes_no(r.steered)
      << ", fault_injected=" << yes_no(r.fault_injected)
      << ", key_recovered=" << yes_no(r.key_recovered)
      << ", success=" << yes_no(r.success) << ", sim time="
      << static_cast<double>(r.total_time) / kSecond << " s\n";
  return out.str();
}

std::optional<std::string> DebugSession::bisect_flip(std::uint32_t byte_index,
                                                     std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<std::string> {
    if (error) *error = what;
    return std::nullopt;
  };
  const crypto::TableCipher& cipher = campaign_->cipher();
  if (byte_index >= cipher.table_size())
    return fail("byte index out of range (table has " +
                std::to_string(cipher.table_size()) + " bytes)");
  const auto steer_layer = layer_of("steer");
  if (!steer_layer)
    return fail("the steer event has not executed yet; run-until steer first");

  const std::uint8_t canonical = cipher.canonical_table()[byte_index];
  const std::uint8_t live = cipher.live_bits(byte_index);
  const attack::FlipRecord& chosen = reports_.front().chosen;
  // Each probe replays from the post-steer layer with a partial hammer
  // budget and reads the victim byte; restores are exact, so probes are
  // independent and the search is deterministic.
  const auto probe = [&](std::uint64_t iterations) {
    timeline_->restore_only(*steer_layer);
    campaign_->templater().hammer_aggressors(chosen, iterations);
    return campaign_->victim().read_table()[byte_index];
  };
  const auto corrupted = [&](std::uint8_t value) {
    return ((value ^ canonical) & live) != 0;
  };

  const std::uint64_t budget = campaign_cfg_.templating.hammer_iterations;
  const std::uint8_t at_budget = probe(budget);
  if (!corrupted(at_budget)) {
    timeline_->restore_only(position_);
    return fail("table byte " + std::to_string(byte_index) +
                " keeps its canonical value " + hex_byte(canonical) +
                " within the hammer budget of " + std::to_string(budget) +
                " iterations");
  }
  // Monotone threshold crossing: below the weak cell's activation
  // threshold nothing flips, above it the flip persists — binary-search
  // the first corrupting iteration count.
  std::uint64_t lo = 1;
  std::uint64_t hi = budget;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (corrupted(probe(mid)))
      hi = mid;
    else
      lo = mid + 1;
  }
  const std::uint8_t value = probe(lo);
  timeline_->restore_only(position_);

  std::ostringstream out;
  out << "first corrupting event: hammer iteration " << lo << " of " << budget
      << " flips table byte " << byte_index << " from " << hex_byte(canonical)
      << " to " << hex_byte(value) << " (bits ";
  bool first = true;
  for (int b = 0; b < 8; ++b) {
    if ((((value ^ canonical) & live) >> b) & 1) {
      if (!first) out << ",";
      out << b;
      first = false;
    }
  }
  out << ")";
  return out.str();
}

DebugCommandOutcome execute_debug_command(DebugSession& session,
                                          const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  std::string error;
  std::ostringstream out;
  const auto ok = [&] {
    return DebugCommandOutcome{DebugCommandOutcome::Kind::kOk, out.str()};
  };
  const auto reject = [](std::string what) {
    // The parser's reject contract: NEVER an empty diagnostic.
    EXPLFRAME_CHECK(!what.empty());
    return DebugCommandOutcome{DebugCommandOutcome::Kind::kError,
                               std::move(what)};
  };

  if (cmd.empty())
    return {DebugCommandOutcome::Kind::kEmpty, {}};
  if (cmd == "quit" || cmd == "exit" || cmd == "q")
    return {DebugCommandOutcome::Kind::kQuit, {}};
  if (cmd == "help") {
    out << "  step [n]           execute the next n events (default 1)\n"
           "  run-until <event>  execute up to and including <event>\n"
           "  rewind [n]         undo the last n events (snapshot restore, "
           "default 1)\n"
           "  bisect-flip <byte> first hammer iteration corrupting that "
           "table byte\n"
           "  status             position and report so far\n"
           "  events             the event list\n"
           "  quit               leave the debugger\n";
    return ok();
  }
  if (cmd == "status") {
    out << session.status();
    return ok();
  }
  if (cmd == "events") {
    for (std::size_t i = 0; i < session.events().size(); ++i)
      out << "  [" << (i < session.position() ? 'x' : ' ') << "] "
          << session.events()[i] << "\n";
    return ok();
  }
  if (cmd == "step") {
    std::uint64_t n = 1;
    in >> n;
    for (std::uint64_t i = 0; i < n && !session.done(); ++i)
      out << session.step() << "\n";
    if (session.done()) out << "(end of trial)\n";
    return ok();
  }
  if (cmd == "run-until") {
    std::string event;
    in >> event;
    if (!session.run_until(event, &error)) return reject(error);
    out << session.status();
    return ok();
  }
  if (cmd == "rewind") {
    std::uint64_t n = 1;
    in >> n;
    if (!session.rewind(n, &error)) return reject(error);
    out << "rewound to " << session.position() << "/"
        << session.events().size() << " events executed\n";
    return ok();
  }
  if (cmd == "bisect-flip") {
    std::uint32_t byte_index = 0;
    if (!(in >> byte_index)) return reject("usage: bisect-flip <byte-index>");
    const auto found = session.bisect_flip(byte_index, &error);
    if (!found) return reject(error);
    out << *found << "\n";
    return ok();
  }
  return reject("unknown command '" + cmd + "' (try: help)");
}

}  // namespace explframe::scenario
