#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "kernel/noise.hpp"
#include "snapshot/restorable.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

namespace ex = explframe;
using ex::attack::CampaignConfig;
using ex::attack::CampaignReport;
using ex::attack::RunnerConfig;
using ex::scenario::Defence;
using ex::scenario::Scenario;
using ex::scenario::WeakCellProfile;

namespace {

/// A generated scenario goes through the `.scn` parser like a user file
/// would, so the program only ever runs validated inputs.
Scenario validated(const Scenario& s) {
  std::string error;
  const auto parsed = Scenario::from_scn(s.to_scn(), &error);
  if (!parsed || !(*parsed == s))
    throw std::runtime_error("generated scenario '" + s.name +
                             "' does not round-trip: " + error);
  return *parsed;
}

Scenario generated(const std::string& name, std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.title = "perfbench generated input";
  s.trials = 1;  // The closed loop picks trial indices itself.
  s.threads = 1;
  s.seed = seed;
  return s;
}

}  // namespace

std::pair<const RunnerConfig*, std::uint32_t> TrialSet::trial(
    std::uint64_t op) const {
  return {&configs[op % configs.size()],
          static_cast<std::uint32_t>(op / configs.size())};
}

TrialSet make_trial_set(const std::string& workload, std::uint64_t seed) {
  TrialSet set;
  if (workload == "present-pfa") {
    // The present-single-flip shape: a dense module (PRESENT's 16-byte table
    // window needs it) and a 2000-ciphertext harvest budget. Its 4 MiB
    // templating buffer finds no usable flip on about a quarter of the
    // machines, which gives fast trials with no key search; the 8 MiB
    // buffer makes those rare, so the key search dominates and the trial
    // times form one mode whose median is steady across seeds.
    Scenario s = generated("pb-present-pfa", ex::sweep::derive_point_seed(seed, 0));
    s.cipher = ex::crypto::CipherKind::kPresent80;
    s.weak_cells = WeakCellProfile::kDense;
    s.ciphertext_budget = 2000;
    s.buffer_mib = 8;
    set.registry.add(validated(s));
  } else if (workload == "aes-defences") {
    // The defence-grid shape with a 192-row templating budget, so mitigated
    // configs give up instead of scanning the whole buffer.
    std::size_t k = 0;
    for (const Defence d :
         {Defence::kNone, Defence::kTrr, Defence::kEcc, Defence::kTrrEcc}) {
      for (const WeakCellProfile w :
           {WeakCellProfile::kRealistic, WeakCellProfile::kVulnerable}) {
        std::string name = std::string("pb-aes-") + to_string(d) + "-" +
                           to_string(w);
        std::replace(name.begin(), name.end(), '+', '-');
        Scenario s = generated(name, ex::sweep::derive_point_seed(seed, k++));
        s.defence = d;
        s.weak_cells = w;
        s.max_rows = 192;
        set.registry.add(validated(s));
      }
    }
  } else {
    throw std::runtime_error("unknown trial workload '" + workload + "'");
  }
  for (const Scenario& s : set.registry.all())
    set.configs.push_back(s.runner_config());
  return set;
}

SweepJobs make_sweep_jobs(std::uint64_t seed, std::size_t count) {
  // A sweep cannot override the seed, and sweep::Registry::add validates
  // every spec against the builtin scenario catalogue. So the generated
  // bases, one seed each, borrow the builtin names: every field a point
  // depends on except the seed is overridden in the spec, so the builtin
  // validation and the service's resolution in the generated catalogue
  // agree on everything else. More bases = more distinct machines per run.
  SweepJobs jobs;
  std::vector<std::string> bases;
  for (const Scenario& builtin : ex::scenario::Registry::builtin().all()) {
    bases.push_back(builtin.name);
    jobs.scenarios.add(validated(generated(
        builtin.name, ex::sweep::derive_point_seed(seed, bases.size()))));
  }

  ex::Rng rng(seed ^ 0x5eedf00dULL);
  for (std::size_t j = 0; j < count; ++j) {
    // Jobs cycle through the bases, module sizes and weak-cell profiles;
    // the hammer budget (a template-shaping field every point shares) and
    // the noise level are drawn. All jobs on one base share its seed, so
    // each (base, size, profile) is one weak-cell layout: the more
    // layouts a run covers, the less its job latencies depend on the seed.
    // The noise-free points steer and harvest, the noisy ones race the
    // planted frame.
    const std::string& base = bases[j % bases.size()];
    const std::size_t layout = j / bases.size();
    const std::uint64_t memory = std::uint64_t{16} << (layout % 3);
    const char* const cells = (layout / 3) % 2 ? "dense" : "vulnerable";
    const std::uint64_t hammer = 60000 + 10000 * (rng.next() % 9);
    const std::uint64_t noise = 4 + rng.next() % 17;
    const std::string text =
        "name = pb-sweep-" + std::to_string(j) +
        "\ntitle = perfbench generated sweep\nbase = " + base +
        "\nseed_mode = shared\n"
        "base.cipher = aes128\nbase.analysis = pfa-missing-value\n"
        "base.defence = none\nbase.trr_threshold = 12000\n"
        "base.buffer_mib = 4\n"
        "base.max_rows = 192\nbase.both_polarities = true\n"
        "base.ciphertext_budget = 8000\nbase.trials = 4\nbase.threads = 1\n"
        "base.weak_cells = " +
        cells + "\nbase.memory_mib = " + std::to_string(memory) +
        "\nbase.hammer_iterations = " +
        std::to_string(hammer) + "\naxis.noise_ops = 0," +
        std::to_string(noise) + "\naxis.attacker_sleeps = false,true\n";
    std::string error;
    auto spec = ex::sweep::SweepSpec::from_sweep(text, &error);
    if (!spec || !spec->expand(jobs.scenarios, &error))
      throw std::runtime_error("generated sweep does not expand: " + error);
    jobs.sweeps.add(std::move(*spec));
  }
  return jobs;
}

namespace {

/// The machine's simulated-work counters at one instant.
struct Tally {
  std::uint64_t activations = 0, flips = 0, trr = 0, ecc = 0;
  std::uint64_t pcp_hits = 0, pcp_refills = 0, buddy_direct = 0;
  std::uint64_t encryptions = 0;
};

Tally tally(ex::kernel::System& sys, ex::attack::TemplatedCampaign& tc) {
  const auto& vm = sys.allocator().stats();
  return {sys.dram().total_activations(), sys.dram().total_flips(),
          sys.dram().trr_interventions(), sys.dram().ecc_corrected_bits(),
          vm.pcp_alloc_hits, vm.pcp_refills, vm.buddy_direct,
          tc.victim().encryptions()};
}

void add_tally(Trace& counts, const Tally& to, const Tally& from) {
  counts.add("dram.activations", to.activations - from.activations);
  counts.add("dram.flips", to.flips - from.flips);
  counts.add("dram.trr_interventions", to.trr - from.trr);
  counts.add("dram.ecc_corrected_bits", to.ecc - from.ecc);
  counts.add("mm.pcp_alloc_hits", to.pcp_hits - from.pcp_hits);
  counts.add("mm.pcp_refills", to.pcp_refills - from.pcp_refills);
  counts.add("mm.buddy_direct", to.buddy_direct - from.buddy_direct);
  counts.add("crypto.encryptions", to.encryptions - from.encryptions);
}

/// Phases 2-6 of TemplatedCampaign::run_fork, after the restore, step by
/// step in the order scenario::DebugSession steps them, with the batched
/// harvest of the production path.
CampaignReport fork_phases(ex::kernel::System& sys,
                           ex::attack::TemplatedCampaign& tc,
                           const CampaignConfig& config, Trace& trace,
                           Trace* counts) {
  CampaignReport report = tc.template_result();
  if (!report.template_found) {
    report.total_time = sys.now() - tc.start_time();
    return report;
  }
  ex::kernel::Task& attacker = tc.attacker();
  ex::attack::VictimCipherService& victim = tc.victim();
  const ex::crypto::TableCipher& cipher = tc.cipher();
  {
    Trace::Span span(trace, "attack.plant");
    report.planted_pfn = sys.translate(attacker, report.chosen.page_va);
    if (report.planted_pfn == ex::mm::kInvalidPfn)
      throw std::runtime_error("templated page is not mapped");
    sys.sys_munmap(attacker, report.chosen.page_va, ex::kPageSize);
  }
  if (config.noise_ops > 0) {
    Trace::Span span(trace, "kernel.noise");
    ex::kernel::Task& noisy = sys.spawn("noise", config.noise_cpu);
    ex::kernel::NoiseWorkload noise(sys, noisy, {}, tc.noise_seed());
    if (config.attacker_sleeps)
      attacker.set_state(ex::kernel::TaskState::kSleeping);
    noise.run(config.noise_ops);
    if (config.attacker_sleeps)
      attacker.set_state(ex::kernel::TaskState::kRunnable);
  }
  {
    Trace::Span span(trace, "attack.steer");
    victim.install_tables();
    report.victim_table_pfn = sys.translate(victim.task(), victim.table_page_va());
    report.steered = report.victim_table_pfn == report.planted_pfn;
  }
  {
    Trace::Span span(trace, "attack.hammer");
    tc.templater().hammer_aggressors(report.chosen);
    report.fault_injected = victim.table_corrupted();
    if (report.fault_injected) {
      const auto table = victim.read_table();
      const auto canonical = cipher.canonical_table();
      std::uint32_t live_diffs = 0;
      for (std::size_t i = 0; i < table.size(); ++i) {
        const std::uint8_t live = cipher.live_bits(i);
        if ((table[i] & live) != (canonical[i] & live)) ++live_diffs;
      }
      report.fault_as_predicted =
          live_diffs == 1 &&
          (table[report.table_index] & cipher.live_bits(report.table_index)) ==
              tc.fault_model().v_new;
    }
  }
  if (!report.steered || !report.fault_injected) {
    report.total_time = sys.now() - tc.start_time();
    return report;
  }

  Trace::Span harvest(trace, "attack.harvest");
  auto analysis = ex::fault::make_analysis(config.analysis, cipher, tc.fault_model());
  ex::Rng rng(tc.plaintext_seed());
  const std::size_t block = cipher.block_size();
  if (analysis->wants_known_pair()) {
    std::vector<std::uint8_t> pt(block), ct(block);
    rng.fill_bytes(pt);
    victim.encrypt(pt, ct);
    analysis->set_known_pair(pt, ct);
  }
  std::uint32_t check_interval = config.analysis_check_interval;
  if (check_interval == 0)
    check_interval = cipher.table_size() >= 256 ? 256 : 25;
  const std::uint32_t chunk_cap =
      std::min(check_interval, config.ciphertext_budget);
  std::vector<std::uint8_t> pts(std::size_t{chunk_cap} * block);
  std::vector<std::uint8_t> cts(std::size_t{chunk_cap} * block);
  std::uint32_t done = 0;
  while (done < config.ciphertext_budget) {
    const std::uint32_t n =
        std::min(check_interval, config.ciphertext_budget - done);
    const std::span<std::uint8_t> pt_span(pts.data(), n * block);
    const std::span<std::uint8_t> ct_span(cts.data(), n * block);
    rng.fill_bytes(pt_span);
    victim.encrypt_batch(pt_span, ct_span);
    {
      Trace::Span span(trace, "fault.absorb");
      analysis->add_ciphertext_batch(ct_span, block);
    }
    done += n;
    std::optional<std::vector<std::uint8_t>> key;
    {
      Trace::Span span(trace, "fault.recover_key");
      key = analysis->recover_key();
    }
    if (counts) {
      counts->add("fault.recover_calls", 1);
      counts->add("fault.recover_hits", key ? 1 : 0);
    }
    if (key) {
      report.key_recovered = true;
      report.recovered_key = std::move(*key);
      report.residual_search = analysis->residual_search();
      report.ciphertexts_used = done;
      break;
    }
  }
  if (!report.key_recovered) report.ciphertexts_used = config.ciphertext_budget;
  report.success =
      report.key_recovered && report.recovered_key == report.victim_key;
  report.total_time = sys.now() - tc.start_time();
  return report;
}

}  // namespace

std::vector<CampaignReport> traced_trial_group(
    const RunnerConfig& base, const std::vector<CampaignConfig>& variants,
    std::uint32_t trial, Trace& trace, Trace* counts) {
  const auto [system_seed, campaign_seed] =
      ex::attack::CampaignRunner::trial_seeds(base.seed, trial);
  ex::kernel::SystemConfig sys_cfg = base.system;
  sys_cfg.seed = system_seed;
  std::unique_ptr<ex::kernel::System> sys;
  {
    Trace::Span span(trace, "kernel.system_new");
    sys = std::make_unique<ex::kernel::System>(sys_cfg);
  }
  CampaignConfig first = variants.front();
  first.seed = campaign_seed;
  std::unique_ptr<ex::attack::TemplatedCampaign> tc;
  {
    Trace::Span span(trace, "attack.template");
    tc = std::make_unique<ex::attack::TemplatedCampaign>(*sys, first,
                                                         /*take_snapshot=*/false);
  }
  const ex::SimTime template_time = sys->now() - tc->start_time();
  const Tally templated = tally(*sys, *tc);
  // The explicit capture/restore pair CampaignRunner pays inside
  // TemplatedCampaign (it snapshots only after a successful template).
  std::unique_ptr<ex::snap::Snapshot> snapshot;
  if (tc->template_result().template_found) {
    Trace::Span span(trace, "snapshot.capture");
    snapshot = sys->snapshot();
  }
  if (counts) {
    add_tally(*counts, templated, Tally{});
    counts->add("machines", 1);
    counts->add("dram.state_bytes", sys->dram().state_bytes());
  }

  std::vector<CampaignReport> reports;
  for (const CampaignConfig& variant : variants) {
    CampaignConfig cfg = variant;
    cfg.seed = campaign_seed;
    if (snapshot) {
      Trace::Span span(trace, "snapshot.restore");
      sys->restore(*snapshot);
    }
    const Tally before = tally(*sys, *tc);
    CampaignReport report = fork_phases(*sys, *tc, cfg, trace, counts);
    report.template_time = template_time;
    if (counts) add_tally(*counts, tally(*sys, *tc), before);
    reports.push_back(std::move(report));
  }
  {
    Trace::Span span(trace, "kernel.system_drop");
    tc.reset();
    sys.reset();
  }
  return reports;
}

void count_trial(const ex::sweep::TrialRow& row, Trace& counts) {
  counts.add("trials", 1);
  counts.add("templated", row.template_found);
  counts.add("steered", row.steered);
  counts.add("fault_injected", row.fault_injected);
  counts.add("key_recovered", row.key_recovered);
  counts.add("success", row.success);
  counts.add("attack.rows_scanned", row.rows_scanned);
  counts.add("attack.flips_found", row.flips_found);
  counts.add("attack.ciphertexts_used", row.ciphertexts_used);
  counts.add("fault.residual_candidates", row.residual_search);
}

void keep_counts(const Trace& counts, bool traced, RunResult& result) {
  for (const char* name :
       {"trials", "templated", "steered", "fault_injected", "key_recovered",
        "success", "attack.rows_scanned", "attack.flips_found",
        "attack.ciphertexts_used", "fault.residual_candidates"})
    result.counts[name] = counts.count(name);
  if (!traced) return;
  for (const char* name :
       {"dram.activations", "dram.flips", "dram.trr_interventions",
        "dram.ecc_corrected_bits", "dram.state_bytes", "mm.pcp_alloc_hits",
        "mm.pcp_refills", "mm.buddy_direct", "crypto.encryptions",
        "fault.recover_calls", "fault.recover_hits"})
    result.counts[name] = counts.count(name);
}

namespace {

/// Every per-layer metric BENCHMARK.json lists, so a traced run emits the
/// full set on every workload (a layer the workload does not run reads 0).
const char* const kSpanMetrics[] = {
    "kernel.system_new", "attack.template",  "snapshot.capture",
    "snapshot.restore",  "attack.plant",     "kernel.noise",
    "attack.steer",      "attack.hammer",    "attack.harvest",
    "fault.absorb",      "fault.recover_key", "kernel.system_drop",
    "service.submit",    "service.wait",     "service.report",
    "sweep.run_sweep"};
const char* const kCountMetrics[] = {
    "attack.rows_scanned",     "dram.activations",   "dram.flips",
    "dram.trr_interventions",  "dram.ecc_corrected_bits",
    "mm.pcp_alloc_hits",       "mm.pcp_refills",     "mm.buddy_direct",
    "crypto.encryptions",      "fault.recover_calls",
    "fault.residual_candidates", "sweep.points",     "service.executions",
    "io.ops",                  "io.syncs",           "io.write_bytes"};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void emit_layers(const Trace& spans, std::uint64_t ops, const Trace& counts,
                 RunResult& result) {
  const double per_op = ops ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const char* name : kSpanMetrics)
    result.set(std::string(name) + "_ms", spans.self_ms(name) * per_op, "ms");
  for (const std::string name : kCountMetrics)
    result.set(name, static_cast<double>(counts.count(name)),
               name.ends_with("_bytes") ? "bytes" : "count");
  const std::uint64_t machines = counts.count("machines");
  result.set("dram.state_bytes",
             ratio(counts.count("dram.state_bytes"), machines), "bytes");
  result.set("attack.template_yield",
             ratio(counts.count("templated"), counts.count("trials")), "ratio");
  result.set("attack.steer_rate",
             ratio(counts.count("steered"), counts.count("templated")), "ratio");
  result.set("fault.recover_hit_ratio",
             ratio(counts.count("fault.recover_hits"),
                   counts.count("fault.recover_calls")),
             "ratio");
  result.set("service.cache_hit_ratio",
             ratio(counts.count("service.cached"),
                   counts.count("service.submits")),
             "ratio");
  result.set("trace.unaccounted_ms", spans.self_ms("op") * per_op, "ms");
  result.set("io.sync_ms", 0.0, "ms");  // The daemon workload sets its own.
}

}  // namespace perfbench
