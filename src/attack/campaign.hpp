// The end-to-end ExplFrame campaign (§V + §VI of the paper), cipher- and
// analysis-agnostic:
//
//   1. TEMPLATE  — hammer the attacker's own buffer until a page with a
//                  usable flip is found (usable = the flip's page offset
//                  falls inside the victim's table window, the bit is live
//                  for the cipher, and its polarity matches the canonical
//                  table bit at that position).
//   2. PLANT     — munmap that single page; its frame lands at the hot head
//                  of the current CPU's page frame cache. Stay active.
//   3. STEER     — the victim (same CPU) installs its crypto context; its
//                  first-touched page receives the planted frame.
//   4. HAMMER    — re-hammer the SAME aggressor virtual addresses (still
//                  mapped); the same weak cell flips again, now corrupting
//                  the victim's table.
//   5. HARVEST   — collect ciphertexts of the victim encrypting unknown
//                  plaintexts.
//   6. ANALYSE   — the fault::Analysis engine (PFA) recovers the master key.
//
// One TemplatedCampaign drives every (cipher, analysis) combination; the
// pair is a CampaignConfig field.
// The attacker never reads /proc/<pid>/pagemap; PFNs appear only in the
// report's ground-truth section, filled in by the harness.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/templating.hpp"
#include "attack/victim.hpp"
#include "crypto/table_cipher.hpp"
#include "fault/analysis.hpp"
#include "kernel/system.hpp"
#include "snapshot/restorable.hpp"

namespace explframe::attack {

/// Everything one campaign needs: the (cipher, analysis) pair, per-phase
/// budgets, the contention knobs and the master seed. Plain data — a
/// scenario or bench fills it in and hands it to TemplatedCampaign.
struct CampaignConfig {
  crypto::CipherKind cipher = crypto::CipherKind::kAes128;
  fault::AnalysisKind analysis = fault::AnalysisKind::kPfaMissingValue;
  TemplateConfig templating;
  VictimConfig victim;
  std::uint32_t cpu = 0;  ///< CPU shared by attacker and victim.
  /// Ciphertexts harvested before giving up on key recovery.
  std::uint32_t ciphertext_budget = 6000;
  /// Harvested ciphertexts between key-recovery attempts (0 = a cadence
  /// matched to the cipher's table alphabet: 256 for AES, 25 for PRESENT).
  std::uint32_t analysis_check_interval = 0;
  /// Background noise operations between plant and victim allocation
  /// (models other activity racing for the planted frame). CPU of the
  /// noise task and whether it shares the attack CPU are configurable.
  std::uint32_t noise_ops = 0;
  std::uint32_t noise_cpu = 0;
  /// If true, the attacker sleeps (yields the CPU to the noise task)
  /// between plant and victim allocation — the failure mode the paper
  /// warns about. If false the attacker stays active (paper's attack).
  bool attacker_sleeps = false;
  /// Master seed. The campaign derives independent sub-seeds from it for
  /// templating, the victim key (when victim.key is empty), the noise
  /// workload and the harvested plaintexts, so parallel trials seeded with
  /// distinct values share no RNG stream. TemplateConfig::seed is
  /// overridden by the derived value.
  std::uint64_t seed = 42;

  bool operator==(const CampaignConfig&) const = default;
};

/// Every phase outcome, for the experiment tables — one struct for all
/// ciphers (keys are raw bytes sized by the cipher).
struct CampaignReport {
  crypto::CipherKind cipher = crypto::CipherKind::kAes128;

  // Phase 1: templating.
  bool template_found = false;
  std::uint64_t rows_scanned = 0;
  std::uint64_t flips_found = 0;
  FlipRecord chosen;              ///< The flip used for the attack.
  std::uint16_t table_index = 0;  ///< Table entry the flip corrupts.
  std::uint8_t fault_mask = 0;

  // Phase 3: steering (ground truth).
  bool steered = false;  ///< Victim's table page received the planted frame.
  mm::Pfn planted_pfn = mm::kInvalidPfn;
  mm::Pfn victim_table_pfn = mm::kInvalidPfn;

  // Phase 4: fault injection (ground truth).
  bool fault_injected = false;  ///< Victim table corrupted after re-hammer.
  bool fault_as_predicted = false;  ///< Exactly the templated bit flipped.

  // Phase 5/6: analysis.
  std::uint32_t ciphertexts_used = 0;
  std::uint32_t residual_search = 0;  ///< Brute-force candidates (PRESENT).
  bool key_recovered = false;
  std::vector<std::uint8_t> recovered_key;

  // Ground truth: the key the victim actually used (config key, or the
  // seed-derived key when the config left it empty).
  std::vector<std::uint8_t> victim_key;

  bool success = false;  ///< key_recovered && matches victim key.
  SimTime total_time = 0;

  // ---- Timing breakdown --------------------------------------------------
  /// Simulated time spent in phase 1 (templating); the rest of total_time
  /// is the post-template attack. Deterministic (simulated clock).
  SimTime template_time = 0;
  /// Host wall-clock seconds spent templating. NOT byte-stable — excluded
  /// from every golden-checked emitter; stdout/bench diagnostics only.
  double template_wall_seconds = 0.0;

  /// First pipeline phase that failed ("none" on success).
  std::string failure_stage() const;

  /// True when `other` reports the same outcome: every field equal except
  /// template_wall_seconds (host wall clock, never deterministic).
  bool same_outcome(const CampaignReport& other) const;
  /// Every field equal, template_wall_seconds included.
  bool operator==(const CampaignReport&) const = default;
};

/// True when `a` and `b` template identically on one machine: they may
/// differ only in what phases 2-6 read (analysis, ciphertext_budget,
/// analysis_check_interval, noise_ops, noise_cpu, attacker_sleeps) and in
/// the two seeds the campaign overrides (the master seed, which callers
/// compare on their own, and TemplateConfig::seed, derived from it). Every
/// other field shapes the template, a field added later included.
/// run_fork CHECKs it against the templated base; SweepRunner groups grid
/// points with it.
bool shares_template(const CampaignConfig& a, const CampaignConfig& b);

/// The campaign, split at its natural seam: construction runs setup +
/// templating (phase 1), then — when `take_snapshot` — captures a machine
/// snapshot; run_fork() restores that snapshot and runs the post-template
/// phases (2-6), so N variants sharing a templated base cost one templating
/// plus N cheap forks. A single fork needs no snapshot: without one,
/// run_fork() runs straight on the templated machine and at most one call
/// is meaningful. Derived seeds and the seed-derived victim key live in
/// members and locals, never in the caller's config.
///
/// Phases 2-6 are public steps (plant, noise, steer, hammer, harvest) that
/// run_fork() calls in order; scenario::DebugSession steps the same
/// methods one event at a time, so there is one copy of the attack.
///
/// Reports are byte-identical to fresh single-shot runs because (a) the
/// machine restore is exact (snap::Restorable contract; the mmap cursor
/// restore makes the victim's post-fork VAs match a fresh run), and
/// (b) every post-template knob comes from the run_fork argument while
/// every template-shaping field is CHECKed equal to the templated base
/// (shares_template + master seed).
class TemplatedCampaign {
 public:
  /// Runs setup + templating immediately on `system` (which must be
  /// freshly constructed, as in CampaignRunner::run_trial).
  TemplatedCampaign(kernel::System& system, const CampaignConfig& config,
                    bool take_snapshot);

  /// Run phases 2-6 under `config`. CHECK: `config` shares the templated
  /// base's template (shares_template) and master seed. Restores the
  /// post-template snapshot first when one was taken, so calls are
  /// independent; without one, at most a single call is meaningful.
  CampaignReport run_fork(const CampaignConfig& config);

  // ---- Phase steps (run_fork's body; the debugger's events) -------------
  // Each step advances the machine and fills in its slice of `report`,
  // which starts as template_result(). They require a found template and
  // must run in this order; none stamps total_time.
  /// 2 PLANT: munmap the templated page so its frame heads the per-CPU
  /// page frame cache.
  void plant(CampaignReport& report);
  /// Contention between plant and steer (callers skip it when
  /// config.noise_ops == 0): config.noise_ops operations of a noise task
  /// on config.noise_cpu, with the attacker asleep if configured.
  void noise(const CampaignConfig& config);
  /// 3 STEER: the victim installs its tables; records whether its table
  /// page received the planted frame.
  void steer(CampaignReport& report);
  /// 4 HAMMER: re-hammer the templated aggressors; records whether (and
  /// exactly as predicted) the victim table was corrupted.
  void hammer(CampaignReport& report);
  /// 5 + 6 HARVEST + ANALYSE: batched ciphertext harvest under `config`'s
  /// analysis, budget and check cadence until the key is recovered. A
  /// no-op when steering or fault injection failed.
  void harvest(const CampaignConfig& config, CampaignReport& report);

  // ---- Introspection (debugger + tests) ---------------------------------
  /// The templated base configuration.
  const CampaignConfig& config() const noexcept { return config_; }
  /// The report as of the end of phase 1: template_found, chosen flip,
  /// victim key, template_time, and total_time == template_time.
  const CampaignReport& template_result() const noexcept { return partial_; }
  /// The fault model derived from the chosen flip (valid iff
  /// template_result().template_found).
  const fault::FaultModel& fault_model() const noexcept { return fault_model_; }
  kernel::System& system() noexcept { return *system_; }
  kernel::Task& attacker() noexcept { return *attacker_; }
  VictimCipherService& victim() noexcept { return *victim_; }
  Templater& templater() noexcept { return *templater_; }
  const crypto::TableCipher& cipher() const noexcept { return *cipher_; }
  std::uint64_t noise_seed() const noexcept { return noise_seed_; }
  std::uint64_t plaintext_seed() const noexcept { return plaintext_seed_; }
  /// Simulated clock at campaign start (before setup + templating).
  SimTime start_time() const noexcept { return start_; }

 private:
  kernel::System* system_;
  CampaignConfig config_;
  const crypto::TableCipher* cipher_ = nullptr;
  std::unique_ptr<VictimCipherService> victim_;
  std::unique_ptr<Templater> templater_;
  kernel::Task* attacker_ = nullptr;
  CampaignReport partial_;  ///< Phase-1 fields, copied into every fork.
  fault::FaultModel fault_model_;
  std::uint64_t noise_seed_ = 0;
  std::uint64_t plaintext_seed_ = 0;
  SimTime start_ = 0;
  std::unique_ptr<snap::Snapshot> post_template_;
};

}  // namespace explframe::attack
