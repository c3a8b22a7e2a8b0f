// PERF — batched-activation hammer path: activations/sec of the per-access
// loop vs DramDevice::hammer_burst, with and without TRR (the burst must
// win by >= 10x on the bare device), and bursts/sec of templating-shaped
// bursts (reported, no bar). Campaign trial throughput is perfbench's
// `ops_per_s` (workloads `aes-defences`, `present-pfa`).
//
// The TRR rows run the default sampler (20K activations, 64 ms window)
// under a double-sided pair, which makes both aggressors intervene in the
// same iteration every 20K iterations. The 50M-iteration burst spans ~140
// refresh windows of ~17 intervention iterations each, the 500K-iteration
// templating burst ~1.4 windows and 25 of them. In each window the burst
// steps interventions only until their state repeats, then skips the
// whole TRR cycles that fit before the refresh, so these rows time the
// cycle skip more than the per-intervention step.
//
// Writes the headline numbers to BENCH_hammer.json (override with
// --json=PATH) so CI can archive the perf trajectory per PR.
#include <cstdint>
#include <iostream>

#include "dram/hammer.hpp"
#include "harness.hpp"
#include "scenario/scenario.hpp"
#include "support/table.hpp"

using namespace explframe;
using namespace explframe::dram;

namespace {

DeviceParams device_params(bool trr) {
  DeviceParams p;
  p.weak_cells.cells_per_mib = 64.0;
  p.trr.enabled = trr;
  return p;
}

/// Hammers a double-sided pair for `iterations` rounds, through
/// hammer_burst or the per-access loop, and returns the host throughput in
/// DRAM activations per second.
double acts_per_sec(bool trr, bool burst, std::uint64_t iterations) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, device_params(trr), 99);
  dev.fill(0, 0xFF, 4 * kMiB);
  AddressMapping map(g, MappingScheme::kRowMajor);
  const PhysAddr pair[2] = {map.encode({0, 0, 0, 19, 0}),
                            map.encode({0, 0, 0, 21, 0})};
  const double secs = bench::time_seconds([&] {
    if (burst) return dev.hammer_burst(pair, iterations);
    for (std::uint64_t i = 0; i < iterations; ++i) {
      dev.access(pair[0]);
      dev.access(pair[1]);
    }
  });
  return secs > 0.0 ? static_cast<double>(dev.total_activations()) / secs
                    : 0.0;
}

/// Templating-shaped bursts, as Templater::probe_row issues them: on a
/// dense 64 MiB module (scenario profile `dense`), fill a victim row with
/// 0xFF and its two neighbours with 0x00, then hammer the neighbours for
/// 500K iterations; one burst per interior row of bank 0, in row order.
/// Returns bursts per host second, fills included.
double bursts_per_sec(bool trr) {
  kernel::SystemConfig config;
  scenario::apply_weak_cell_profile(scenario::WeakCellProfile::kDense, config);
  DeviceParams p = config.dram;
  p.trr.enabled = trr;
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, p, 99);
  AddressMapping map(g, MappingScheme::kRowMajor);
  const std::uint32_t bursts = g.rows_per_bank - 2;
  const double secs = bench::time_seconds([&] {
    for (std::uint32_t row = 1; row <= bursts; ++row) {
      const PhysAddr pair[2] = {map.encode({0, 0, 0, row - 1, 0}),
                                map.encode({0, 0, 0, row + 1, 0})};
      dev.fill(pair[0], 0x00, g.row_bytes);
      dev.fill(pair[1], 0x00, g.row_bytes);
      dev.fill(map.encode({0, 0, 0, row, 0}), 0xFF, g.row_bytes);
      dev.hammer_burst(pair, 500'000);
    }
  });
  return secs > 0.0 ? static_cast<double>(bursts) / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags_or_exit(argc, argv, {"BENCH_hammer.json", {}});

  print_banner(std::cout, "PERF: batched-activation hammer path");

  // The slow path steps the full device model per access; keep its budget
  // moderate so the bench stays quick. The burst gets a larger budget so
  // its rate is not warm-up-dominated.
  constexpr std::uint64_t kSlowIters = 2'000'000;
  constexpr std::uint64_t kBurstIters = 50'000'000;

  const double slow = acts_per_sec(false, false, kSlowIters);
  const double fast = acts_per_sec(false, true, kBurstIters);
  const double slow_trr = acts_per_sec(true, false, kSlowIters);
  const double fast_trr = acts_per_sec(true, true, kBurstIters);
  const double speedup = slow > 0.0 ? fast / slow : 0.0;
  const double speedup_trr = slow_trr > 0.0 ? fast_trr / slow_trr : 0.0;

  std::cout << "\n(a) double-sided hammer throughput (host wall clock):\n";
  Table t({"defences", "path", "activations/sec", "speedup"});
  t.row("none", "per-access", slow, 1.0);
  t.row("none", "burst", fast, speedup);
  t.row("TRR", "per-access", slow_trr, 1.0);
  t.row("TRR", "burst", fast_trr, speedup_trr);
  t.print(std::cout);

  const double template_bursts = bursts_per_sec(false);
  const double template_bursts_trr = bursts_per_sec(true);
  std::cout << "\n(b) templating-shaped 500K-iteration bursts, dense 64 MiB "
               "module (host wall clock):\n";
  Table tb({"defences", "bursts/sec"});
  tb.row("none", template_bursts);
  tb.row("TRR", template_bursts_trr);
  tb.print(std::cout);

  // The acceptance bar: the burst path must be at least 10x the per-access
  // loop on the undefended device.
  bench::Verdict verdict;
  verdict.require(speedup >= 10.0, "burst speedup ", speedup, " < 10x");
  bench::Json json = bench::bench_json("hammer_burst");
  json.add("per_access_acts_per_sec", slow)
      .add("burst_acts_per_sec", fast)
      .add("speedup", speedup)
      .add("per_access_acts_per_sec_trr", slow_trr)
      .add("burst_acts_per_sec_trr", fast_trr)
      .add("speedup_trr", speedup_trr)
      .add("template_bursts_per_sec", template_bursts)
      .add("template_bursts_per_sec_trr", template_bursts_trr);
  return bench::finish(json, flags.json, verdict);
}
