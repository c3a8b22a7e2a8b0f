// scenario::Scenario — one declaratively-configured experiment.
//
// The paper is an experiment *suite*: cipher (AES-128 / PRESENT-80) ×
// hardware defence (none / TRR / ECC / TRR+ECC) × DRAM weak-cell profile ×
// attacker budgets × trial counts. A Scenario captures one such point as
// plain data: it lowers to the attack::RunnerConfig that CampaignRunner
// executes, and round-trips losslessly through the flat `.scn` key=value
// text format (support/config.hpp), so every registered experiment is also
// a diffable, user-editable file.
//
// Determinism contract: a Scenario fully determines its results. Everything
// stochastic derives from `seed` via CampaignRunner's per-trial seed
// derivation; `threads` only changes wall-clock time, never a reported
// number.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "attack/campaign_runner.hpp"
#include "crypto/table_cipher.hpp"
#include "fault/analysis.hpp"
#include "support/config.hpp"

namespace explframe::scenario {

/// Hardware Rowhammer mitigation configuration of the simulated module.
enum class Defence {
  kNone,    ///< Baseline vulnerable part.
  kTrr,     ///< In-DRAM target row refresh.
  kEcc,     ///< SECDED ECC (single-bit correction on read).
  kTrrEcc,  ///< Both.
};

/// Canonical name ("none" | "trr" | "ecc" | "trr+ecc").
const char* to_string(Defence defence) noexcept;
/// Inverse of to_string; nullopt on an unknown name.
std::optional<Defence> defence_from_string(const std::string& name) noexcept;

/// Named weak-cell population presets: quiet, realistic and vulnerable
/// modules, plus the denser one PRESENT's 16-byte table window needs.
enum class WeakCellProfile {
  kQuiet,       ///< No weak cells (allocator-only experiments).
  kRealistic,   ///< Typical DDR3 part (4 cells/MiB, stock thresholds).
  kVulnerable,  ///< Highly vulnerable part, weakened thresholds.
  kDense,       ///< 4x vulnerable density (PRESENT scenarios).
};

/// Canonical name ("quiet" | "realistic" | "vulnerable" | "dense").
const char* to_string(WeakCellProfile profile) noexcept;
/// Inverse of to_string; nullopt on an unknown name.
std::optional<WeakCellProfile> weak_cell_profile_from_string(
    const std::string& name) noexcept;

/// Overwrite `config`'s DRAM weak-cell population (and the coupled
/// data-pattern-sensitivity flag) with the preset. The single source of
/// these constants — scenarios, experiments and benches all delegate here.
void apply_weak_cell_profile(WeakCellProfile profile,
                             kernel::SystemConfig& config) noexcept;

/// Canonical cipher name ("aes128" | "present80") for `.scn` files.
std::optional<crypto::CipherKind> cipher_from_string(
    const std::string& name) noexcept;

/// Canonical analysis name ("pfa-missing-value" | "pfa-max-likelihood")
/// for `.scn` files.
std::optional<fault::AnalysisKind> analysis_from_string(
    const std::string& name) noexcept;

/// One named, fully-declarative experiment. Field defaults are the values
/// omitted from a minimal `.scn` file; `name` and `title` are mandatory.
struct Scenario {
  // ---- Identity (the handbook entry) ----
  std::string name;         ///< Registry key, kebab-case, unique.
  std::string title;        ///< One-line human title.
  std::string description;  ///< One-paragraph handbook description.
  std::string paper_ref;    ///< Paper section/table this reproduces.

  // ---- The attack ----
  crypto::CipherKind cipher = crypto::CipherKind::kAes128;
  fault::AnalysisKind analysis = fault::AnalysisKind::kPfaMissingValue;

  // ---- The machine ----
  Defence defence = Defence::kNone;
  std::uint32_t trr_threshold = 12'000;  ///< TRR activation threshold.
  WeakCellProfile weak_cells = WeakCellProfile::kVulnerable;
  std::uint64_t memory_mib = 64;

  // ---- Sweep shape ----
  std::uint32_t trials = 8;
  std::uint32_t threads = 2;  ///< Wall-clock only; results are identical.
  std::uint64_t seed = 1;

  // ---- Attacker budgets ----
  std::uint64_t buffer_mib = 4;  ///< Templating buffer size.
  std::uint64_t hammer_iterations = 100'000;
  std::uint64_t max_rows = 0;  ///< Templating row budget (0 = one pass).
  bool both_polarities = true;
  std::uint32_t ciphertext_budget = 8000;

  // ---- Contention window (the paper's failure-mode knobs) ----
  std::uint32_t noise_ops = 0;
  bool attacker_sleeps = false;

  /// Lower to the RunnerConfig CampaignRunner executes.
  attack::RunnerConfig runner_config() const;

  /// Serialize to canonical `.scn` text (fixed key order; defaults are
  /// written explicitly so the file documents every knob).
  std::string to_scn() const;

  /// Parse `.scn` text. Returns nullopt and fills `error` (when non-null)
  /// on malformed lines, duplicate keys, malformed values, unknown keys,
  /// out-of-range values or unsupported combinations (e.g. max-likelihood
  /// PFA on PRESENT).
  static std::optional<Scenario> from_scn(const std::string& text,
                                          std::string* error = nullptr);

  bool operator==(const Scenario&) const = default;
};

}  // namespace explframe::scenario
