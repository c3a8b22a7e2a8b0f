#include "scenario/scenario.hpp"

#include <bit>

#include "support/units.hpp"

namespace explframe::scenario {

const char* to_string(Defence defence) noexcept {
  switch (defence) {
    case Defence::kNone:
      return "none";
    case Defence::kTrr:
      return "trr";
    case Defence::kEcc:
      return "ecc";
    case Defence::kTrrEcc:
      return "trr+ecc";
  }
  return "?";
}

std::optional<Defence> defence_from_string(const std::string& name) noexcept {
  if (name == "none") return Defence::kNone;
  if (name == "trr") return Defence::kTrr;
  if (name == "ecc") return Defence::kEcc;
  if (name == "trr+ecc") return Defence::kTrrEcc;
  return std::nullopt;
}

const char* to_string(WeakCellProfile profile) noexcept {
  switch (profile) {
    case WeakCellProfile::kQuiet:
      return "quiet";
    case WeakCellProfile::kRealistic:
      return "realistic";
    case WeakCellProfile::kVulnerable:
      return "vulnerable";
    case WeakCellProfile::kDense:
      return "dense";
  }
  return "?";
}

std::optional<WeakCellProfile> weak_cell_profile_from_string(
    const std::string& name) noexcept {
  if (name == "quiet") return WeakCellProfile::kQuiet;
  if (name == "realistic") return WeakCellProfile::kRealistic;
  if (name == "vulnerable") return WeakCellProfile::kVulnerable;
  if (name == "dense") return WeakCellProfile::kDense;
  return std::nullopt;
}

std::optional<crypto::CipherKind> cipher_from_string(
    const std::string& name) noexcept {
  if (name == "aes128") return crypto::CipherKind::kAes128;
  if (name == "present80") return crypto::CipherKind::kPresent80;
  return std::nullopt;
}

std::optional<fault::AnalysisKind> analysis_from_string(
    const std::string& name) noexcept {
  if (name == "pfa-missing-value") return fault::AnalysisKind::kPfaMissingValue;
  if (name == "pfa-max-likelihood")
    return fault::AnalysisKind::kPfaMaxLikelihood;
  return std::nullopt;
}

void apply_weak_cell_profile(WeakCellProfile profile,
                             kernel::SystemConfig& config) noexcept {
  switch (profile) {
    case WeakCellProfile::kQuiet:
      config.dram.weak_cells.cells_per_mib = 0.0;
      break;
    case WeakCellProfile::kRealistic:
      break;  // stock WeakCellParams: 4 cells/MiB, 60K-median thresholds
    case WeakCellProfile::kVulnerable:
    case WeakCellProfile::kDense:
      config.dram.weak_cells.cells_per_mib =
          profile == WeakCellProfile::kDense ? 512.0 : 128.0;
      config.dram.weak_cells.threshold_log_mean = 10.4;
      config.dram.weak_cells.threshold_min = 25'000;
      config.dram.weak_cells.threshold_max = 60'000;
      config.dram.data_pattern_sensitivity = false;
      break;
  }
}

namespace {

const char* cipher_scn_name(crypto::CipherKind kind) noexcept {
  return kind == crypto::CipherKind::kAes128 ? "aes128" : "present80";
}

const char* analysis_scn_name(fault::AnalysisKind kind) noexcept {
  switch (kind) {
    case fault::AnalysisKind::kPfaMissingValue:
      return "pfa-missing-value";
    case fault::AnalysisKind::kPfaMaxLikelihood:
      return "pfa-max-likelihood";
  }
  return "?";
}

}  // namespace

attack::RunnerConfig Scenario::runner_config() const {
  attack::RunnerConfig cfg;
  cfg.trials = trials;
  cfg.threads = threads;
  cfg.seed = seed;

  cfg.system.memory_bytes = memory_mib * kMiB;
  cfg.system.num_cpus = 2;
  apply_weak_cell_profile(weak_cells, cfg.system);
  cfg.system.dram.trr.enabled =
      defence == Defence::kTrr || defence == Defence::kTrrEcc;
  cfg.system.dram.trr.threshold = trr_threshold;
  cfg.system.dram.ecc.enabled =
      defence == Defence::kEcc || defence == Defence::kTrrEcc;

  cfg.campaign.cipher = cipher;
  cfg.campaign.analysis = analysis;
  cfg.campaign.templating.buffer_bytes = buffer_mib * kMiB;
  cfg.campaign.templating.hammer_iterations = hammer_iterations;
  cfg.campaign.templating.max_rows = max_rows;
  cfg.campaign.templating.both_polarities = both_polarities;
  cfg.campaign.ciphertext_budget = ciphertext_budget;
  cfg.campaign.noise_ops = noise_ops;
  cfg.campaign.noise_cpu = 0;
  cfg.campaign.attacker_sleeps = attacker_sleeps;
  return cfg;
}

std::string Scenario::to_scn() const {
  KvFile kv;
  kv.set("name", name);
  kv.set("title", title);
  kv.set("description", description);
  kv.set("paper_ref", paper_ref);
  kv.set("cipher", cipher_scn_name(cipher));
  kv.set("analysis", analysis_scn_name(analysis));
  kv.set("defence", to_string(defence));
  kv.set("trr_threshold", std::to_string(trr_threshold));
  kv.set("weak_cells", to_string(weak_cells));
  kv.set("memory_mib", std::to_string(memory_mib));
  kv.set("trials", std::to_string(trials));
  kv.set("threads", std::to_string(threads));
  kv.set("seed", std::to_string(seed));
  kv.set("buffer_mib", std::to_string(buffer_mib));
  kv.set("hammer_iterations", std::to_string(hammer_iterations));
  kv.set("max_rows", std::to_string(max_rows));
  kv.set("both_polarities", both_polarities ? "true" : "false");
  kv.set("ciphertext_budget", std::to_string(ciphertext_budget));
  kv.set("noise_ops", std::to_string(noise_ops));
  kv.set("attacker_sleeps", attacker_sleeps ? "true" : "false");
  return kv.serialize();
}

std::optional<Scenario> Scenario::from_scn(const std::string& text,
                                           std::string* error) {
  const auto kv = KvFile::parse(text, error);
  if (!kv) return std::nullopt;

  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return std::nullopt;
  };

  Scenario s;
  KvReader r(*kv);
  s.name = r.get_string("name", "");
  s.title = r.get_string("title", "");
  s.description = r.get_string("description", "");
  s.paper_ref = r.get_string("paper_ref", "");

  const std::string cipher_name =
      r.get_string("cipher", cipher_scn_name(s.cipher));
  if (const auto c = cipher_from_string(cipher_name); c)
    s.cipher = *c;
  else
    r.fail("cipher", "unknown cipher '" + cipher_name + "'");

  const std::string analysis_name =
      r.get_string("analysis", analysis_scn_name(s.analysis));
  if (const auto a = analysis_from_string(analysis_name); a)
    s.analysis = *a;
  else
    r.fail("analysis", "unknown analysis '" + analysis_name + "'");

  const std::string defence_name =
      r.get_string("defence", to_string(s.defence));
  if (const auto d = defence_from_string(defence_name); d)
    s.defence = *d;
  else
    r.fail("defence", "unknown defence '" + defence_name + "'");

  const std::string profile_name =
      r.get_string("weak_cells", to_string(s.weak_cells));
  if (const auto p = weak_cell_profile_from_string(profile_name); p)
    s.weak_cells = *p;
  else
    r.fail("weak_cells", "unknown weak-cell profile '" + profile_name + "'");

  s.trr_threshold = r.get_u32("trr_threshold", s.trr_threshold);
  s.memory_mib = r.get_u64("memory_mib", s.memory_mib);
  s.trials = r.get_u32("trials", s.trials);
  s.threads = r.get_u32("threads", s.threads);
  s.seed = r.get_u64("seed", s.seed);
  s.buffer_mib = r.get_u64("buffer_mib", s.buffer_mib);
  s.hammer_iterations = r.get_u64("hammer_iterations", s.hammer_iterations);
  s.max_rows = r.get_u64("max_rows", s.max_rows);
  s.both_polarities = r.get_bool("both_polarities", s.both_polarities);
  s.ciphertext_budget = r.get_u32("ciphertext_budget", s.ciphertext_budget);
  s.noise_ops = r.get_u32("noise_ops", s.noise_ops);
  s.attacker_sleeps = r.get_bool("attacker_sleeps", s.attacker_sleeps);

  if (const auto err = r.finish()) return fail(*err);

  // Semantic validation — the constraints the campaign and the System
  // would otherwise CHECK-fail on mid-run, surfaced as parse errors
  // instead.
  if (s.name.empty() || !KvFile::valid_key(s.name))
    return fail("key 'name': missing or not a valid identifier");
  if (s.title.empty()) return fail("key 'title': missing");
  if (s.trials == 0) return fail("key 'trials': must be >= 1");
  // Geometry::with_capacity needs a power of two of at least 64 rows per
  // bank (4 MiB), and memory_bytes must not overflow.
  if (s.memory_mib < 4 || !std::has_single_bit(s.memory_mib) ||
      s.memory_mib > ~std::uint64_t{0} / kMiB)
    return fail("key 'memory_mib': must be a power of two in [4, 2^43]");
  // The victim, the kernel and the attacker's noise need the other half:
  // larger buffers abort mid-run in allocation.
  if (s.buffer_mib == 0 || s.buffer_mib > s.memory_mib / 2)
    return fail("key 'buffer_mib': must be in [1, memory_mib / 2]");
  if (s.analysis == fault::AnalysisKind::kPfaMaxLikelihood &&
      s.cipher != crypto::CipherKind::kAes128)
    return fail("key 'analysis': pfa-max-likelihood is AES-only");
  return s;
}

}  // namespace explframe::scenario
