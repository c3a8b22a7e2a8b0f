#include "attack/campaign.hpp"

#include <algorithm>
#include <chrono>

#include "kernel/noise.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace explframe::attack {

std::string CampaignReport::failure_stage() const {
  if (success) return "none";
  if (!template_found) return "templating";
  if (!steered) return "steering";
  if (!fault_injected) return "fault-injection";
  if (!key_recovered) return "key-recovery";
  return "key-mismatch";
}

bool CampaignReport::same_outcome(const CampaignReport& other) const {
  CampaignReport self = *this;
  self.template_wall_seconds = other.template_wall_seconds;
  return self == other;
}

bool shares_template(const CampaignConfig& a, const CampaignConfig& b) {
  CampaignConfig shaped = a;
  shaped.analysis = b.analysis;
  shaped.ciphertext_budget = b.ciphertext_budget;
  shaped.analysis_check_interval = b.analysis_check_interval;
  shaped.noise_ops = b.noise_ops;
  shaped.noise_cpu = b.noise_cpu;
  shaped.attacker_sleeps = b.attacker_sleeps;
  shaped.seed = b.seed;
  shaped.templating.seed = b.templating.seed;
  return shaped == b;
}

namespace {

/// Construction and every fork reject the same invalid (cipher, analysis)
/// combinations before any simulated work happens.
void check_analysis_combo(const CampaignConfig& config) {
  EXPLFRAME_CHECK_MSG(
      config.analysis != fault::AnalysisKind::kPfaMaxLikelihood ||
          config.cipher == crypto::CipherKind::kAes128,
      "max-likelihood PFA is AES-only");
}

}  // namespace

TemplatedCampaign::TemplatedCampaign(kernel::System& system,
                                     const CampaignConfig& config,
                                     bool take_snapshot)
    : system_(&system), config_(config) {
  check_analysis_combo(config);
  const crypto::TableCipher& cipher = crypto::cipher_for(config.cipher);
  cipher_ = &cipher;
  partial_.cipher = config.cipher;
  start_ = system.now();
  // determinism: allow(steady-clock) template_wall_seconds diagnostic, never emitted
  const auto wall_start = std::chrono::steady_clock::now();

  // Independent per-component sub-seeds: trials that differ only in the
  // master seed share no RNG stream, and no component's draw count can
  // perturb another's (the cross-talk the old per-attack Rng had).
  SplitMix64 seeds(config.seed);
  const std::uint64_t templating_seed = seeds.next();
  const std::uint64_t victim_key_seed = seeds.next();
  noise_seed_ = seeds.next();
  plaintext_seed_ = seeds.next();

  // Derived values stay in locals/members: config_ must keep reporting
  // what the caller actually configured.
  TemplateConfig templating_cfg = config.templating;
  templating_cfg.seed = templating_seed;
  VictimConfig victim_cfg = config.victim;
  if (victim_cfg.key.empty())
    victim_cfg.key = crypto::random_key(cipher, victim_key_seed);
  partial_.victim_key = victim_cfg.key;

  // ---------------------------------------------------------------- setup
  attacker_ = &system.spawn("attacker", config.cpu);

  // The victim service is already running (it is a long-lived daemon); it
  // has not yet allocated the crypto context.
  victim_ = std::make_unique<VictimCipherService>(system, config.cpu, cipher,
                                                  victim_cfg);
  victim_->start();

  // ------------------------------------------------------------ 1 TEMPLATE
  templater_ = std::make_unique<Templater>(system, *attacker_, templating_cfg);
  templater_->allocate_buffer();

  const std::uint32_t table_off = victim_cfg.sbox_offset;
  const std::size_t table_size = cipher.table_size();
  const auto usable = [&](const FlipRecord& f) {
    if (f.offset < table_off || f.offset >= table_off + table_size)
      return false;
    return cipher.usable_flip(f.offset - table_off, f.bit, f.to_one);
  };

  const TemplateReport tmpl = templater_->scan_until(usable);
  partial_.rows_scanned = tmpl.rows_scanned;
  partial_.flips_found = tmpl.flips.size();
  for (const FlipRecord& f : tmpl.flips) {
    if (usable(f)) {
      partial_.template_found = true;
      partial_.chosen = f;
      break;
    }
  }
  if (partial_.template_found) {
    partial_.table_index =
        static_cast<std::uint16_t>(partial_.chosen.offset - table_off);
    fault_model_ =
        fault::fault_model_for(cipher, partial_.table_index,
                               partial_.chosen.bit);
    partial_.fault_mask = fault_model_.mask;
    EXPLFRAME_LOG_INFO("template: flip at page offset ",
                       log_hex(partial_.chosen.offset), " bit ",
                       int(partial_.chosen.bit), " -> ", cipher.name(),
                       " table index ", partial_.table_index);
  }
  partial_.template_time = system.now() - start_;
  partial_.total_time = partial_.template_time;
  partial_.template_wall_seconds =
      std::chrono::duration<double>(
          // determinism: allow(steady-clock) template_wall_seconds diagnostic, never emitted
          std::chrono::steady_clock::now() - wall_start)
          .count();
  // A failed templating run has no post-template phases to fork into; the
  // machine is left untouched by run_fork then, so no snapshot is needed.
  if (take_snapshot && partial_.template_found)
    post_template_ = system.snapshot();
}

CampaignReport TemplatedCampaign::run_fork(const CampaignConfig& config) {
  check_analysis_combo(config);
  EXPLFRAME_CHECK_MSG(
      config.seed == config_.seed && shares_template(config, config_),
      "run_fork config diverges from the templated base on a "
      "template-shaping field");

  // Rewind the machine to the instant templating finished, so every fork
  // starts from the same state.
  if (post_template_) system_->restore(*post_template_);

  CampaignReport report = partial_;
  if (report.template_found) {
    plant(report);
    if (config.noise_ops > 0) noise(config);
    steer(report);
    hammer(report);
    harvest(config, report);
  }
  report.total_time = system_->now() - start_;
  return report;
}

void TemplatedCampaign::plant(CampaignReport& report) {
  report.planted_pfn = system_->translate(*attacker_, report.chosen.page_va);
  EXPLFRAME_CHECK(report.planted_pfn != mm::kInvalidPfn);
  system_->sys_munmap(*attacker_, report.chosen.page_va, kPageSize);
}

void TemplatedCampaign::noise(const CampaignConfig& config) {
  kernel::Task& noisy = system_->spawn("noise", config.noise_cpu);
  kernel::NoiseWorkload workload(*system_, noisy, {}, noise_seed_);
  if (config.attacker_sleeps) attacker_->set_state(kernel::TaskState::kSleeping);
  workload.run(config.noise_ops);
  if (config.attacker_sleeps) attacker_->set_state(kernel::TaskState::kRunnable);
}

void TemplatedCampaign::steer(CampaignReport& report) {
  victim_->install_tables();
  report.victim_table_pfn =
      system_->translate(victim_->task(), victim_->table_page_va());
  report.steered = report.victim_table_pfn == report.planted_pfn;
}

void TemplatedCampaign::hammer(CampaignReport& report) {
  templater_->hammer_aggressors(report.chosen);
  report.fault_injected = victim_->table_corrupted();
  if (!report.fault_injected) return;
  const crypto::TableCipher& cipher = *cipher_;
  const auto table = victim_->read_table();
  const auto canonical = cipher.canonical_table();
  std::uint32_t live_diffs = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint8_t live = cipher.live_bits(i);
    if ((table[i] & live) != (canonical[i] & live)) ++live_diffs;
  }
  report.fault_as_predicted =
      live_diffs == 1 &&
      (table[report.table_index] & cipher.live_bits(report.table_index)) ==
          fault_model_.v_new;
}

void TemplatedCampaign::harvest(const CampaignConfig& config,
                                CampaignReport& report) {
  if (!report.steered || !report.fault_injected) return;
  // The engine knows v and v' from the template alone (index + bit) —
  // ExplFrame never observes the victim's memory.
  const crypto::TableCipher& cipher = *cipher_;
  auto analysis = fault::make_analysis(config.analysis, cipher, fault_model_);
  Rng rng(plaintext_seed_);
  const std::size_t block = cipher.block_size();

  if (analysis->wants_known_pair()) {
    // One known plaintext/ciphertext pair (the PFA model's usual
    // known-plaintext variant) for PRESENT's residual key-schedule search.
    std::vector<std::uint8_t> pt(block);
    std::vector<std::uint8_t> ct(block);
    rng.fill_bytes(pt);
    victim_->encrypt(pt, ct);
    analysis->set_known_pair(pt, ct);
  }

  std::uint32_t check_interval = config.analysis_check_interval;
  if (check_interval == 0)
    check_interval = cipher.table_size() >= 256 ? 256 : 25;

  // Chunked fill/encrypt/absorb: chunks end exactly at the check_interval
  // multiples (and at the budget), so the key checks fire at the same
  // ciphertext counts as a per-call loop that checks every check_interval
  // blocks — and the plaintext stream is the same too, since block sizes
  // are multiples of fill_bytes' 8-byte words.
  const std::uint32_t chunk_cap =
      std::min(check_interval, config.ciphertext_budget);
  std::vector<std::uint8_t> pts(static_cast<std::size_t>(chunk_cap) * block);
  std::vector<std::uint8_t> cts(static_cast<std::size_t>(chunk_cap) * block);
  std::uint32_t done = 0;
  while (done < config.ciphertext_budget) {
    const std::uint32_t n =
        std::min(check_interval, config.ciphertext_budget - done);
    const std::span<std::uint8_t> pt_span(pts.data(), n * block);
    const std::span<std::uint8_t> ct_span(cts.data(), n * block);
    rng.fill_bytes(pt_span);
    victim_->encrypt_batch(pt_span, ct_span);
    analysis->add_ciphertext_batch(ct_span, block);
    done += n;
    if (auto key = analysis->recover_key()) {
      report.key_recovered = true;
      report.recovered_key = std::move(*key);
      report.residual_search = analysis->residual_search();
      report.ciphertexts_used = done;
      break;
    }
  }
  if (!report.key_recovered)
    report.ciphertexts_used = config.ciphertext_budget;

  report.success =
      report.key_recovered && report.recovered_key == report.victim_key;
}

}  // namespace explframe::attack
