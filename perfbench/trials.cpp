// The trial workloads (present-pfa, aes-defences): a closed loop of
// campaign trials, timed from System construction to CampaignReport.
#include <map>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

namespace ex = explframe;
using ex::attack::CampaignReport;
using ex::attack::CampaignRunner;

namespace {

using Phase = Lane<CampaignReport>;

/// Runs trials in a closed loop. Untraced trials go through
/// CampaignRunner::run_trial; traced ones through the phase-driven
/// traced_trial_group, each checked against run_trial's report (taken from
/// `reference` when the untraced phase already ran that trial).
Phase run_phase(const TrialSet& set, const Options& options,
                std::uint32_t window, double seconds, bool traced,
                const std::map<std::uint64_t, CampaignReport>* reference) {
  const std::uint32_t workers = worker_count(options);
  std::vector<Phase> lanes(workers);
  const double wall = closed_loop(
      workers, seconds, window, UINT64_MAX,
      [&](std::uint32_t w, std::uint64_t op) {
        Phase& lane = lanes[w];
        const auto [config, trial] = set.trial(op);
        ++lane.attempted;
        const std::string where = "op " + std::to_string(op);
        try {
          CampaignReport report;
          const auto t0 = Clock::now();
          if (traced) {
            Trace::Span root(lane.spans, "op");
            report = traced_trial_group(*config, {config->campaign}, trial,
                                        lane.spans,
                                        op < window ? &lane.counts : nullptr)
                         .front();
          } else {
            report = CampaignRunner::run_trial(*config, trial);
          }
          lane.latency_ms.push_back(ms_between(t0, Clock::now()));
          // A wrong key from a fault the analysis does not model (several
          // live table bits flipped: fault_as_predicted is false) is the
          // attack failing, which the report records as !success. From the
          // modelled fault it is a program error, and so is a success flag
          // that disagrees with the keys.
          const bool right_key = report.key_recovered &&
                                 report.recovered_key == report.victim_key;
          if (report.success != right_key) {
            lane.failures.push_back(where + ": success flag disagrees with the key");
          } else if (report.key_recovered && !right_key &&
                     report.fault_as_predicted) {
            lane.failures.push_back(where + ": recovered a wrong key from the "
                                            "predicted fault");
          } else if (traced) {
            const auto it = reference->find(op);
            const CampaignReport expected =
                it != reference->end()
                    ? it->second
                    : CampaignRunner::run_trial(*config, trial);
            if (stable_fields(report) != stable_fields(expected))
              lane.failures.push_back(
                  where + ": phase-driven report differs from run_trial");
          }
          // Traced runs reuse every untraced report as a reference.
          if (op < window || (!traced && options.trace))
            lane.out.emplace(op, std::move(report));
        } catch (const std::exception& e) {
          lane.failures.push_back(where + ": " + e.what());
        }
      });
  return Phase::merge(lanes, wall);
}

}  // namespace

RunResult run_trials(const Options& options) {
  RunResult result;
  // Set-up: generate, validate and register the workload's scenarios. One
  // generation takes microseconds, so each sample times a batch of 8000
  // scenario generations (tens of milliseconds) and the reported set-up is
  // the median sample over its batch size. The last set is used.
  constexpr int kSamples = 7;
  constexpr std::size_t kScenariosPerSample = 8000;
  std::vector<double> setup_s;
  TrialSet set = make_trial_set(options.workload, options.seed);
  const std::size_t batch = kScenariosPerSample / set.configs.size();
  for (int i = 0; i < kSamples; ++i) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b)
      set = make_trial_set(options.workload, options.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0 /
                      static_cast<double>(batch));
  }
  const std::uint32_t window =
      options.workload == "present-pfa" ? kPresentWindow : kAesWindow;

  // Traced runs split the time: untraced trials first (the overhead
  // baseline and the reference reports), then the same trials traced.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain =
      run_phase(set, options, window, untraced_s, false, nullptr);
  const double rss = peak_rss_mib();
  Phase traced;
  if (options.trace)
    traced = run_phase(set, options, window, options.seconds / 2, true,
                       &plain.out);

  const Phase& shown = options.trace ? traced : plain;
  Trace counts = shown.counts;
  for (std::uint32_t op = 0; op < window; ++op) {
    const auto it = shown.out.find(op);
    if (it == shown.out.end()) continue;  // Failed; already counted.
    result.digest = fnv1a(stable_fields(it->second) + "\n", result.digest);
    count_trial(ex::sweep::TrialRow::from_report(it->second), counts);
  }
  result.digest_ops = window;
  keep_counts(counts, options.trace, result);

  plain.tally(result);
  traced.tally(result);
  if (!options.trace) {
    result.set("op_p50_ms", median(plain.latency_ms), "ms");
    result.set("op_p90_ms", quantile(plain.latency_ms, 0.9), "ms");
    result.samples["op_p50_ms"] = result.samples["op_p90_ms"] =
        plain.latency_ms.size();
    result.set("ops_per_s",
               static_cast<double>(plain.latency_ms.size()) / plain.wall_s,
               "1/s");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mib", rss, "MiB");
  } else {
    emit_layers(traced.spans, traced.latency_ms.size(), counts, result);
    result.set("trace.overhead_ms",
               median(traced.latency_ms) - median(plain.latency_ms), "ms");
  }
  return result;
}

}  // namespace perfbench
