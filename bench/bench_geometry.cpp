// PERF — packed-SoA DRAM state vs the seed layout at multi-GB geometries.
//
// The bit-packed arenas exist to make giant simulated modules affordable:
// the seed kept weak cells in an unordered_map of heap vectors (~100 B of
// node overhead per cell) plus a 1-byte-per-row presence array, so
// geometry-scaled bookkeeping — not the analytic hammer kernel — capped
// the capacity a campaign could simulate. This bench builds both
// representations across a rows × ranks × channels scaling curve (the
// seed layout via tests/dram/reference_dram.hpp, under the documented
// conservative cost model; the packed layout via DramDevice::state_bytes)
// and derives, from each side's measured bytes-per-simulated-GiB, the
// maximum capacity that fits a fixed bookkeeping budget.
//
// Writes BENCH_geometry.json (override with --json=PATH) and exits
// non-zero unless the packed representation sustains BOTH bars:
//   * >= 8x the seed's maximum simulated capacity (--bar-capacity=X)
//   * <  2x the seed's resident bytes per simulated GiB (--bar-memory=X)
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "../tests/dram/reference_dram.hpp"
#include "dram/dram_device.hpp"
#include "dram/geometry.hpp"
#include "harness.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

using namespace explframe;

namespace {

/// Host-RAM budget the "maximum simulated geometry" is defined against.
constexpr std::uint64_t kStateBudget = 64 * kMiB;
constexpr std::uint64_t kSeed = 42;

/// The population density both layouts carry: the stock realistic profile
/// (WeakCellParams' default 4 cells/MiB, scenario::Scenario::kRealistic) —
/// the density multi-GB capacity sweeps actually run at. The seed layout's
/// dominant cost at this density is its 1-byte-per-row presence array plus
/// ~100 B of map-node overhead per cell; denser artificial profiles
/// (kVulnerable's 128/MiB) amortize the per-row floor and narrow the gap,
/// so this bench deliberately measures the density the capacity claim is
/// about rather than the one most flattering to either side.
dram::DeviceParams bench_params() {
  dram::DeviceParams params;
  params.weak_cells.threshold_log_mean = 10.4;
  params.weak_cells.threshold_min = 25'000;
  return params;
}

/// One measured point of the scaling curve.
struct Point {
  std::string label;       ///< geometry description
  std::uint64_t capacity;  ///< simulated bytes
  std::uint64_t ranks = 1;
  std::uint64_t channels = 1;
  std::uint64_t seed_bytes = 0;    ///< reference-layout state bytes
  std::uint64_t packed_bytes = 0;  ///< packed-layout state bytes
};

double per_gib(std::uint64_t state_bytes, std::uint64_t capacity) {
  return static_cast<double>(state_bytes) /
         (static_cast<double>(capacity) / static_cast<double>(kGiB));
}

std::uint64_t measure_packed(const dram::Geometry& g) {
  const dram::DramDevice device(g, bench_params(), kSeed);
  return device.state_bytes();
}

std::uint64_t measure_seed_layout(const dram::Geometry& g) {
  const refdram::RefDevice device(g, bench_params(), kSeed);
  return device.state_bytes();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags_or_exit(
      argc, argv,
      {"BENCH_geometry.json", {{"bar-capacity", 8.0}, {"bar-memory", 2.0}}});
  const double bar_capacity = flags.bars.at("bar-capacity");
  const double bar_memory = flags.bars.at("bar-memory");

  print_banner(std::cout, "PERF: packed DRAM state vs seed layout");

  // The curve. The seed layout is measured only while it still fits a
  // few multiples of the budget (its map alone would hold ~20 MB/GiB);
  // the packed layout keeps climbing through the multi-rank region
  // (with_capacity adds ranks past 4 GiB) and one explicit multi-channel
  // shape.
  std::vector<Point> curve;
  for (const std::uint64_t gib : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull}) {
    const dram::Geometry g = dram::Geometry::with_capacity(gib * kGiB);
    Point p;
    p.label = std::to_string(gib) + " GiB";
    p.capacity = g.total_bytes();
    p.ranks = g.ranks;
    p.channels = g.channels;
    if (gib <= 8) p.seed_bytes = measure_seed_layout(g);
    p.packed_bytes = measure_packed(g);
    curve.push_back(p);
  }
  {
    dram::Geometry g;  // 2 channels x 2 ranks x 8 banks x 64Ki rows = 16 GiB
    g.channels = 2;
    g.ranks = 2;
    g.rows_per_bank = 65536;
    Point p;
    p.label = "16 GiB 2ch";
    p.capacity = g.total_bytes();
    p.ranks = g.ranks;
    p.channels = g.channels;
    p.packed_bytes = measure_packed(g);
    curve.push_back(p);
  }

  Table t({"geometry", "ranks", "ch", "seed B/GiB", "packed B/GiB"});
  std::vector<bench::Json> points;
  double seed_bpg = 0.0;    // at the largest seed-measured point
  double packed_bpg = 0.0;  // at the largest packed point
  for (const Point& p : curve) {
    points.push_back(bench::Json()
                         .add("geometry", p.label)
                         .add("capacity_bytes", p.capacity)
                         .add("ranks", p.ranks)
                         .add("channels", p.channels)
                         .add("seed_state_bytes", p.seed_bytes)
                         .add("packed_state_bytes", p.packed_bytes));
    const double sb = p.seed_bytes ? per_gib(p.seed_bytes, p.capacity) : 0.0;
    const double pb = per_gib(p.packed_bytes, p.capacity);
    if (p.seed_bytes) seed_bpg = sb;
    packed_bpg = pb;
    t.row(p.label, p.ranks, p.channels,
          p.seed_bytes ? std::to_string(static_cast<std::uint64_t>(sb)) : "-",
          static_cast<std::uint64_t>(pb));
  }
  t.print(std::cout);

  // Bytes-per-GiB is flat in capacity for both layouts (both are linear
  // in cells + rows), so the budgeted maximum follows from the largest
  // measured point of each curve.
  const double seed_max_gib = static_cast<double>(kStateBudget) / seed_bpg;
  const double packed_max_gib = static_cast<double>(kStateBudget) / packed_bpg;
  const double capacity_ratio = packed_max_gib / seed_max_gib;
  const double memory_ratio = packed_bpg / seed_bpg;

  std::cout << "budget " << kStateBudget / kMiB << " MiB of bookkeeping: seed "
            << "layout caps at " << seed_max_gib << " GiB, packed at "
            << packed_max_gib << " GiB (" << capacity_ratio
            << "x capacity, " << memory_ratio << "x memory per GiB)\n";

  bench::Verdict verdict;
  verdict.require(capacity_ratio >= bar_capacity, "capacity headroom ",
                  capacity_ratio, "x below ", bar_capacity, "x");
  verdict.require(memory_ratio < bar_memory, "memory per simulated GiB ",
                  memory_ratio, "x not below ", bar_memory, "x");
  bench::Json json = bench::bench_json("geometry");
  json.add("cells_per_mib", bench_params().weak_cells.cells_per_mib)
      .add("state_budget_bytes", kStateBudget)
      .add("curve", points)
      .add("seed_bytes_per_gib", seed_bpg)
      .add("packed_bytes_per_gib", packed_bpg)
      .add("seed_max_gib", seed_max_gib)
      .add("packed_max_gib", packed_max_gib)
      .add("capacity_ratio", capacity_ratio)
      .add("memory_ratio", memory_ratio)
      .add("bar_capacity", bar_capacity)
      .add("bar_memory", bar_memory)
      .add("pass", verdict.pass());
  return bench::finish(json, flags.json, verdict);
}
