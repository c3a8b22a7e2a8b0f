// PERF — sweep-engine overhead.
//
// A sweep must cost what its points cost: the grid expansion, the
// work-stealing pool, the per-point record building and the fsynced
// checkpoint log all ride on top of CampaignRunner, and this bench keeps
// that tax honest. It runs one registered grid twice:
//
//   standalone — every expanded point executed directly through
//                CampaignRunner (the cost floor: no sweep machinery);
//   sweep      — the same points through run_sweep with checkpointing
//                enabled (the full engine, as `explsim sweep run` uses it).
//
// Both run single-threaded so the comparison measures machinery, not
// scheduling luck. One run of either side is ~0.15 s, as long as a stray
// fsync or scheduler stall, so the bench times kPairs interleaved
// standalone/sweep pairs and judges the median of the per-pair overheads.
// Writes BENCH_sweep.json (override with --json=PATH) with the medians and
// the overhead's min/median/max so CI can archive the trajectory, and
// exits non-zero if the median overhead exceeds 5% (override with
// --bar=FRACTION) — the CI smoke check that the engine stays thin.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "attack/campaign_runner.hpp"
#include "harness.hpp"
#include "scenario/registry.hpp"
#include "support/table.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

using namespace explframe;

namespace {

/// Interleaved standalone/sweep pairs the verdict is judged over.
constexpr int kPairs = 9;

/// Cost floor: each point as a bare CampaignRunner, no sweep machinery.
void run_standalone(const std::vector<sweep::SweepPoint>& points) {
  for (const sweep::SweepPoint& point : points) {
    attack::RunnerConfig config = point.scenario.runner_config();
    config.threads = 1;
    attack::CampaignRunner runner(config);
    (void)runner.run();
  }
}

void run_engine(const sweep::SweepSpec& spec, const std::string& checkpoint) {
  sweep::SweepRunOptions options;
  options.threads = 1;
  options.checkpoint_path = checkpoint;
  const auto result =
      sweep::run_sweep(spec, scenario::Registry::builtin(), options);
  EXPLFRAME_CHECK(result.has_value());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags_or_exit(
      argc, argv, {"BENCH_sweep.json", {{"bar", 0.05}}});
  const double bar = flags.bars.at("bar");

  print_banner(std::cout, "PERF: sweep-engine overhead");

  const sweep::SweepSpec& spec = sweep::builtin_sweep("defence-grid");
  std::string error;
  const auto points =
      spec.expand(scenario::Registry::builtin(), &error);
  EXPLFRAME_CHECK_MSG(points.has_value(), "builtin sweep must expand");
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "bench_sweep.ckpt").string();

  const auto pairs = bench::interleaved_pairs(
      [&] { run_standalone(*points); }, [&] { run_engine(spec, checkpoint); },
      kPairs);
  std::vector<double> standalone_s, sweep_s, overheads;
  for (const auto& [standalone, swept] : pairs) {
    standalone_s.push_back(standalone);
    sweep_s.push_back(swept);
    overheads.push_back(standalone > 0.0 ? swept / standalone - 1.0 : 0.0);
  }
  const bench::Spread standalone = bench::spread(standalone_s);
  const bench::Spread swept = bench::spread(sweep_s);
  const bench::Spread overhead = bench::spread(overheads);

  Table t({"path", "min s", "median s", "max s"});
  t.row("standalone campaigns", standalone.min, standalone.median,
        standalone.max);
  t.row("sweep engine", swept.min, swept.median, swept.max);
  t.print(std::cout);
  std::cout << "overhead per pair: min " << Table::percent(overhead.min)
            << ", median " << Table::percent(overhead.median) << ", max "
            << Table::percent(overhead.max) << "\n"
            << spec.name << ": " << points->size()
            << " points, single-threaded, checkpointing enabled, " << kPairs
            << " interleaved pairs\n";

  // The acceptance bar: the engine may add at most `bar` (default 5%)
  // over the summed standalone campaign runs, in the median pair.
  bench::Verdict verdict;
  verdict.require(overhead.median <= bar, "median sweep overhead ",
                  Table::percent(overhead.median), " exceeds ",
                  Table::percent(bar));
  bench::Json json = bench::bench_json("sweep");
  json.add("sweep", spec.name)
      .add("points", points->size())
      .add("pairs", kPairs)
      .add("standalone_seconds", standalone.median)
      .add("sweep_seconds", swept.median)
      .add("overhead_fraction", overhead.median)
      .add("overhead_min", overhead.min)
      .add("overhead_max", overhead.max);
  return bench::finish(json, flags.json, verdict);
}
