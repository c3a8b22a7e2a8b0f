// Differential test for DramDevice::hammer_burst: the batched path must be
// bit-identical to the per-access loop — same flip sequence (address, bit,
// direction, simulated time), same refresh count, same TRR interventions and
// ECC bookkeeping, same final memory image, same post-burst device image
// (TRR sampler, disturbance entries in touch order, open rows, refresh
// deadline, mutation epoch, live flips) — on a small geometry under all
// four defence configurations (none / TRR / ECC / TRR+ECC). The
// HammerBurstCycles cases span several refresh windows with TRR, so the
// burst skips repeating TRR cycles.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "dram/dram_device.hpp"
#include "dram/hammer.hpp"
#include "support/rng.hpp"

namespace explframe::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.channels = 1;
  g.ranks = 1;
  g.banks = 2;
  g.rows_per_bank = 64;
  g.row_bytes = 4 * kKiB;  // 512 KiB total
  return g;
}

DeviceParams base_params(bool trr, bool ecc) {
  DeviceParams p;
  // Dense, weak population so flips occur within a short burst; short
  // refresh window so the burst spans several windows; low TRR threshold so
  // interventions fire between refreshes.
  p.weak_cells.cells_per_mib = 4096.0;
  p.weak_cells.threshold_log_mean = 8.3;  // median ~ 4K activations
  p.weak_cells.threshold_log_sigma = 0.5;
  p.weak_cells.threshold_min = 2'000;
  p.weak_cells.threshold_max = 12'000;
  p.timings.refresh_window_ns = 1 * kMillisecond;
  p.trr.enabled = trr;
  p.trr.threshold = 1'500;
  p.trr.sampler_entries = 8;
  p.ecc.enabled = ecc;
  return p;
}

struct Outcome {
  std::vector<FlipEvent> flips;
  SimTime now = 0;
  std::uint64_t activations = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t trr_hits = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_uncorrectable = 0;
  std::uint64_t total_flips = 0;
  std::vector<std::uint8_t> image;
  DramDevice::Image device;  ///< Taken after the flip log is drained.
};

Outcome capture(DramDevice& dev) {
  Outcome o;
  o.flips = dev.drain_flips();
  o.now = dev.now();
  o.activations = dev.total_activations();
  o.refreshes = dev.refresh_count();
  o.trr_hits = dev.trr_interventions();
  o.ecc_corrected = dev.ecc_corrected_bits();
  o.ecc_uncorrectable = dev.ecc_uncorrectable_words();
  o.total_flips = dev.total_flips();
  o.image.resize(dev.geometry().total_bytes());
  dev.read(0, o.image);
  o.device = dev.capture_image();
  return o;
}

void expect_identical(const Outcome& slow, const Outcome& burst,
                      const std::string& label) {
  EXPECT_EQ(slow.now, burst.now) << label;
  EXPECT_EQ(slow.activations, burst.activations) << label;
  EXPECT_EQ(slow.refreshes, burst.refreshes) << label;
  EXPECT_EQ(slow.trr_hits, burst.trr_hits) << label;
  EXPECT_EQ(slow.ecc_corrected, burst.ecc_corrected) << label;
  EXPECT_EQ(slow.ecc_uncorrectable, burst.ecc_uncorrectable) << label;
  EXPECT_EQ(slow.total_flips, burst.total_flips) << label;
  ASSERT_EQ(slow.flips.size(), burst.flips.size()) << label;
  for (std::size_t i = 0; i < slow.flips.size(); ++i) {
    const FlipEvent& a = slow.flips[i];
    const FlipEvent& b = burst.flips[i];
    EXPECT_EQ(a.addr, b.addr) << label << " flip " << i;
    EXPECT_EQ(a.coord, b.coord) << label << " flip " << i;
    EXPECT_EQ(a.bit, b.bit) << label << " flip " << i;
    EXPECT_EQ(a.to_one, b.to_one) << label << " flip " << i;
    EXPECT_EQ(a.time, b.time) << label << " flip " << i;
  }
  EXPECT_EQ(slow.image, burst.image) << label;
  // The state the next access starts from: a burst must leave it exactly
  // as the per-access loop does, not only agree on what it reported.
  const DramDevice::State& a = slow.device.state;
  const DramDevice::State& b = burst.device.state;
  EXPECT_TRUE(a.trr_sampler == b.trr_sampler) << label;
  EXPECT_EQ(slow.device.disturbance, burst.device.disturbance) << label;
  EXPECT_EQ(a.open_row, b.open_row) << label;
  EXPECT_EQ(a.next_refresh, b.next_refresh) << label;
  EXPECT_EQ(a.mutation_epoch, b.mutation_epoch) << label;
  EXPECT_TRUE(a.live_flips == b.live_flips) << label;
}

/// Device setup a differential case runs on both devices before the burst
/// (after the 0xAA fill and the idle start): row fills, prior hammering.
using Prepare = std::function<void(DramDevice&)>;

/// Runs the same aggressor burst through the per-access loop and through
/// hammer_burst on identically seeded devices, both first filled with 0xAA,
/// idle for `start` and put through `prepare`, and asserts every observable
/// matches, including that the burst's elapsed time is the sum of the
/// latencies access() returned. Returns the per-access outcome (so callers
/// can assert coverage).
Outcome run_differential(const DeviceParams& params, std::uint64_t seed,
                         const std::vector<DramAddress>& aggressors,
                         std::uint64_t iterations, const std::string& label,
                         SimTime start = 0, const Prepare& prepare = {}) {
  const Geometry g = small_geometry();
  DramDevice slow_dev(g, params, seed);
  DramDevice burst_dev(g, params, seed);
  // 0xAA charges true cells on odd bits and anti cells on even bits, so both
  // flip directions are exercised; it also gives the data-pattern
  // sensitivity model a mix of matching and opposite aggressor bits.
  slow_dev.fill(0, 0xAA, g.total_bytes());
  burst_dev.fill(0, 0xAA, g.total_bytes());

  std::vector<PhysAddr> addrs;
  for (const DramAddress& c : aggressors)
    addrs.push_back(slow_dev.mapping().encode(c));

  slow_dev.advance(start);
  burst_dev.advance(start);
  if (prepare) {
    prepare(slow_dev);
    prepare(burst_dev);
  }
  SimTime latency_sum = 0;
  for (std::uint64_t i = 0; i < iterations; ++i)
    for (const PhysAddr a : addrs) latency_sum += slow_dev.access(a);
  const SimTime burst_start = burst_dev.now();
  burst_dev.hammer_burst(addrs, iterations);
  EXPECT_EQ(burst_dev.now() - burst_start, latency_sum) << label;

  Outcome slow = capture(slow_dev);
  const Outcome burst = capture(burst_dev);
  expect_identical(slow, burst, label);
  return slow;
}

std::string config_label(bool trr, bool ecc) {
  return std::string(trr ? "trr" : "no-trr") + "/" + (ecc ? "ecc" : "no-ecc");
}

TEST(HammerBurstDifferential, DoubleSidedAllDefenceConfigs) {
  // Double-sided pair around row 20 of bank 0: the canonical hot loop.
  const std::vector<DramAddress> pair = {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0}};
  std::size_t flips_without_defences = 0;
  for (const bool trr : {false, true}) {
    for (const bool ecc : {false, true}) {
      const std::size_t flips =
          run_differential(base_params(trr, ecc), 21, pair, 20'000,
                           "double-sided " + config_label(trr, ecc))
              .flips.size();
      if (!trr && !ecc) flips_without_defences = flips;
    }
  }
  // The equivalence must be demonstrated on a burst that actually flips.
  EXPECT_GT(flips_without_defences, 0u);
}

TEST(HammerBurstDifferential, ManySidedAndAdjacentAggressors) {
  // Four same-bank aggressors, two of them adjacent (so one aggressor row is
  // itself a victim of another — data in an aggressor row can change
  // mid-burst, which the event predictor must pick up).
  const std::vector<DramAddress> many = {
      {0, 0, 0, 10, 0}, {0, 0, 0, 12, 0}, {0, 0, 0, 13, 0}, {0, 0, 0, 30, 0}};
  for (const bool trr : {false, true})
    run_differential(base_params(trr, false), 33, many, 15'000,
                     "many-sided " + config_label(trr, false));
}

TEST(HammerBurstDifferential, CrossBankPairOnlyRowHits) {
  // Different banks: after the first iteration every access is a row hit, so
  // zero activations accrue — the burst must still advance time and cross
  // refresh boundaries identically.
  const std::vector<DramAddress> cross = {{0, 0, 0, 19, 0}, {0, 0, 1, 21, 0}};
  run_differential(base_params(true, true), 5, cross, 30'000, "cross-bank");
}

TEST(HammerBurstDifferential, SingleAggressorAndDuplicates) {
  run_differential(base_params(false, false), 7, {{0, 0, 1, 40, 0}}, 25'000,
                   "single");
  // Duplicate aggressor with a same-bank row between the copies: the second
  // copy conflicts again, so one row activates twice per iteration.
  const std::vector<DramAddress> dup = {
      {0, 0, 1, 40, 0}, {0, 0, 1, 42, 0}, {0, 0, 1, 40, 64}};
  run_differential(base_params(true, false), 7, dup, 12'000, "duplicates");
}

TEST(HammerBurstDifferential, TrrSamplerPressureFallsBackIdentically) {
  // More distinct aggressor rows than sampler entries: the analytic sampler
  // model does not apply and the burst must take the per-access fallback —
  // still bit-identical, just not fast.
  DeviceParams p = base_params(true, false);
  p.trr.sampler_entries = 2;
  const std::vector<DramAddress> many = {
      {0, 0, 0, 10, 0}, {0, 0, 0, 20, 0}, {0, 0, 0, 31, 0}, {0, 0, 0, 44, 0}};
  run_differential(p, 5, many, 8'000, "sampler-pressure");
}

TEST(HammerBurstDifferential, EdgeRowsAndTinyIterationCounts) {
  // Aggressors at the physical edges of the bank (rows 0 and 63) have only
  // one neighbour each; plus warm-up-only burst lengths.
  const std::vector<DramAddress> edges = {{0, 0, 0, 0, 0}, {0, 0, 0, 63, 0}};
  for (const std::uint64_t iters : {1ull, 2ull, 3ull, 7'000ull})
    run_differential(base_params(true, true), 11, edges, iters,
                     "edges x" + std::to_string(iters));
}

TEST(HammerBurstDifferential, TimingProbeShapes) {
  // The templater's row-conflict probes are short two-address bursts whose
  // elapsed time it reads as the latency sum: a same-bank pair (every access
  // conflicts), an other-bank pair and a same-row pair (hits after the first
  // round), over 8 and 16 rounds, under every defence config and both
  // mappings. The second start puts a refresh boundary inside the probe.
  const std::vector<std::vector<DramAddress>> shapes = {
      {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0}},
      {{0, 0, 0, 19, 0}, {0, 0, 1, 21, 0}},
      {{0, 0, 0, 19, 0}, {0, 0, 0, 19, 64}}};
  for (const MappingScheme mapping :
       {MappingScheme::kRowMajor, MappingScheme::kBankXor}) {
    for (const bool trr : {false, true}) {
      for (const bool ecc : {false, true}) {
        DeviceParams p = base_params(trr, ecc);
        p.mapping = mapping;
        const SimTime near_refresh =
            p.timings.refresh_window_ns - 3 * p.timings.row_conflict_ns;
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          for (const std::uint64_t iters : {8ull, 16ull}) {
            for (const SimTime start : {SimTime{0}, near_refresh}) {
              const std::string label =
                  std::string("probe mapping ") +
                  std::to_string(static_cast<int>(mapping)) + " " +
                  config_label(trr, ecc) + " shape " + std::to_string(s) +
                  " x" + std::to_string(iters) + " @" +
                  std::to_string(start);
              run_differential(p, 3, shapes[s], iters, label, start);
            }
          }
        }
      }
    }
  }
}

/// Fills each row of bank `bank` with `byte_of(row)`.
void fill_bank(DramDevice& dev, std::uint32_t bank,
               const std::function<std::uint8_t(std::uint32_t)>& byte_of) {
  const Geometry& g = dev.geometry();
  for (std::uint32_t row = 0; row < g.rows_per_bank; ++row)
    dev.fill(dev.mapping().encode({0, 0, bank, row, 0}), byte_of(row),
             g.row_bytes);
}

/// The weak cell at a flip's coordinate (the population is deterministic in
/// the seed, so a fresh device names the same cells).
WeakCell cell_of(const DramDevice& dev, const FlipEvent& flip) {
  const std::uint64_t flat = flat_row(dev.geometry(), flip.coord);
  for (const WeakCell& cell : dev.weak_cells().cells_in_row(flat))
    if (cell.col == flip.coord.col && cell.bit == flip.bit) return cell;
  ADD_FAILURE() << "flip at a cell the model does not have";
  return {};
}

TEST(HammerBurstDifferential, SamePatternCouplingZero) {
  // A charged cell whose neighbours both hold its own bit couples with
  // factor 0: it can never flip, and its closed-form crossing root is
  // infinite. Rows repeat 0xAA, 0xAA, 0x55, so some victims sit between a
  // matching and a striped neighbour (factor 1) and some between two
  // matching ones (factor 0).
  std::size_t flips = 0;
  for (const bool trr : {false, true}) {
    for (const bool ecc : {false, true}) {
      DeviceParams p = base_params(trr, ecc);
      p.same_pattern_coupling = 0.0;
      const Prepare stripes = [](DramDevice& dev) {
        for (const std::uint32_t bank : {0u, 1u})
          fill_bank(dev, bank, [](std::uint32_t row) {
            return static_cast<std::uint8_t>(row % 3 == 2 ? 0x55 : 0xAA);
          });
      };
      const std::vector<DramAddress> pair = {{0, 0, 0, 19, 0},
                                             {0, 0, 0, 21, 0}};
      const std::vector<DramAddress> single = {{0, 0, 1, 30, 0}};
      flips += run_differential(p, 21, pair, 20'000,
                                "spc=0 pair " + config_label(trr, ecc), 0,
                                stripes)
                   .flips.size();
      run_differential(p, 21, single, 20'000,
                       "spc=0 single " + config_label(trr, ecc), 0, stripes);
    }
  }
  EXPECT_GT(flips, 0u);
}

TEST(HammerBurstDifferential, SingleSidedCellsFromTheUncoupledSide) {
  // Every cell couples to one side only. A lone aggressor reaches half of
  // its victims' cells from their uncoupled side, where the per-iteration
  // slope of the flip condition is 0. In the second case those cells start
  // the burst already past their threshold from earlier hammering of the
  // coupled side, done while they were uncharged (row filled 0x00, so only
  // anti cells were charged), and are charged by a 0xFF fill just before:
  // without TRR, which would have reset that disturbance, they flip on the
  // burst's first activation of row 19.
  DeviceParams p = base_params(false, false);
  p.weak_cells.single_sided_fraction = 1.0;
  p.timings.refresh_window_ns = 64 * kMillisecond;
  const DramAddress above = {0, 0, 0, 19, 0};  // row 20's above-neighbour
  const DramAddress far = {0, 0, 0, 40, 0};    // same bank, not adjacent
  for (const bool trr : {false, true}) {
    p.trr.enabled = trr;
    run_differential(p, 9, {above, far}, 20'000,
                     "one side " + config_label(trr, false));
    const Prepare charged_past_threshold = [&](DramDevice& dev) {
      const PhysAddr row20 = dev.mapping().encode({0, 0, 0, 20, 0});
      const PhysAddr below = dev.mapping().encode({0, 0, 0, 21, 0});
      const PhysAddr away = dev.mapping().encode(far);
      dev.fill(row20, 0x00, dev.geometry().row_bytes);
      for (int i = 0; i < 13'000; ++i) {  // past threshold_max
        dev.access(below);
        dev.access(away);
      }
      dev.fill(row20, 0xFF, dev.geometry().row_bytes);
    };
    const Outcome out =
        run_differential(p, 9, {above, far}, 20'000,
                         "pre-disturbed " + config_label(trr, false), 0,
                         charged_past_threshold);
    if (trr) continue;
    const DramDevice model(small_geometry(), p, 9);
    const SimTime burst_start = 13'000 * 2 * p.timings.row_conflict_ns;
    bool uncoupled_flip = false;
    for (const FlipEvent& flip : out.flips) {
      if (flip.time < burst_start || flip.coord.bank != 0 ||
          flip.coord.row != 20 || cell_of(model, flip).couple_above != 0.0F)
        continue;  // flipped in the pre-hammer, or reachable from row 19
      uncoupled_flip = true;
      EXPECT_EQ(flip.time, burst_start);
    }
    EXPECT_TRUE(uncoupled_flip);
  }
}

TEST(HammerBurstDifferential, ThresholdsAtTheClampBounds) {
  // A wide threshold spread clamps most cells to exactly threshold_min or
  // threshold_max; both kinds must flip, at the same iteration as per
  // access. The window is long enough for a max-threshold cell to cross.
  DeviceParams p = base_params(false, false);
  p.weak_cells.threshold_log_mean = 8.7;  // median ~ 6K activations
  p.weak_cells.threshold_log_sigma = 3.0;
  p.timings.refresh_window_ns = 4 * kMillisecond;
  const std::vector<DramAddress> pairs = {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0},
                                          {0, 0, 1, 40, 0}, {0, 0, 1, 42, 0}};
  for (const bool trr : {false, true}) {
    for (const bool ecc : {false, true}) {
      p.trr.enabled = trr;
      p.ecc.enabled = ecc;
      const Outcome out = run_differential(
          p, 21, pairs, 30'000, "clamped " + config_label(trr, ecc));
      if (trr || ecc) continue;
      const DramDevice model(small_geometry(), p, 21);
      bool at_min = false;
      bool at_max = false;
      for (const FlipEvent& flip : out.flips) {
        const std::uint32_t t = cell_of(model, flip).threshold;
        at_min |= t == p.weak_cells.threshold_min;
        at_max |= t == p.weak_cells.threshold_max;
      }
      EXPECT_TRUE(at_min);
      EXPECT_TRUE(at_max);
    }
  }
}

TEST(HammerBurstDifferential, FlipOnFirstAndLastRemainingIteration) {
  // A charged cell fully coupled to the row above, pre-hammered from that
  // side to `threshold - k` activations, crosses on the burst's k-th
  // iteration. k = 3 is the first iteration after the two exact warm-up
  // iterations, the first the analytic path solves for; k = iterations is
  // the burst's last.
  DeviceParams p = base_params(false, false);
  p.data_pattern_sensitivity = false;  // effective = acts_above exactly
  p.timings.refresh_window_ns = 64 * kMillisecond;
  const Geometry g = small_geometry();
  const DramDevice model(g, p, 21);
  std::uint32_t victim = 0;
  WeakCell target;
  for (std::uint32_t row = 2; row < 36 && victim == 0; ++row)
    for (const WeakCell& cell : model.weak_cells().cells_in_row(row))
      if (cell.couple_above == 1.0F) {
        victim = row;
        target = cell;
        break;
      }
  ASSERT_NE(victim, 0u) << "no fully above-coupled cell in bank 0";
  const DramAddress above = {0, 0, 0, victim - 1, 0};
  const DramAddress far = {0, 0, 0, victim + 20, 0};
  const SimTime iter_latency = 2 * p.timings.row_conflict_ns;

  for (const std::uint64_t iterations : {3ull, 1'000ull}) {
    const std::uint64_t pre = target.threshold - iterations;
    const Prepare prehammer = [&](DramDevice& dev) {
      dev.fill(dev.mapping().encode({0, 0, 0, victim, 0}),
               target.true_cell ? 0xFF : 0x00, g.row_bytes);
      const PhysAddr a = dev.mapping().encode(above);
      const PhysAddr b = dev.mapping().encode(far);
      for (std::uint64_t i = 0; i < pre; ++i) {
        dev.access(a);
        dev.access(b);
      }
    };
    const SimTime burst_start = pre * iter_latency;
    const PhysAddr at = model.mapping().encode({0, 0, 0, victim, target.col});
    const Outcome out =
        run_differential(p, 21, {above, far}, iterations,
                         "flip on iteration " + std::to_string(iterations), 0,
                         prehammer);
    bool seen = false;
    for (const FlipEvent& flip : out.flips) {
      if (flip.addr != at || flip.bit != target.bit) continue;
      seen = true;
      EXPECT_EQ(flip.time, burst_start + (iterations - 1) * iter_latency);
    }
    EXPECT_TRUE(seen) << iterations;
  }
}

/// The crossing search the burst used before the closed-form guess: plain
/// bisection over [1, limit].
std::uint64_t bisect_first(const FlipCrossing& x, std::uint64_t limit) {
  if (limit == 0 || !x.crosses(limit)) return limit + 1;
  std::uint64_t lo = 1;
  std::uint64_t hi = limit;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (x.crosses(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(FlipCrossing, FirstMatchesBisectionOracle) {
  // Random crossings, weighted towards the degenerate ones: zero, infinite
  // and NaN factors, zero slopes and couplings, zero thresholds, counters
  // near 2^32, and limits from 0 to 2^40. One family puts the threshold
  // exactly on the value the condition reaches at a random iteration, so
  // the rounded root lands on or next to the answer. Small limits are also
  // checked against a linear scan.
  Rng rng(0xc205);
  const auto pick = [&](std::initializer_list<double> options) {
    return *(options.begin() + rng.uniform(options.size()));
  };
  for (int trial = 0; trial < 200'000; ++trial) {
    FlipCrossing x;
    const auto counter = [&] {
      switch (rng.uniform(4)) {
        case 0: return std::uint32_t{0};
        case 1: return static_cast<std::uint32_t>(rng.uniform(1u << 20));
        case 2: return static_cast<std::uint32_t>(0xFFFFFFFFu - rng.uniform(64));
        default: return static_cast<std::uint32_t>(rng.uniform(100'000));
      }
    };
    const auto couple = [&] {
      switch (rng.uniform(3)) {
        case 0: return 0.0F;
        case 1: return 1.0F;
        default: return static_cast<float>(0.5 + 0.5 * rng.uniform01());
      }
    };
    x.above = counter();
    x.below = counter();
    x.per_above = static_cast<std::uint32_t>(pick({0, 1, 2, 3, 7}));
    x.per_below = static_cast<std::uint32_t>(pick({0, 1, 2, 3, 7}));
    x.couple_above = couple();
    x.couple_below = couple();
    x.factor = pick({1.0, 1.0, 0.6, 0.0, rng.uniform01(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()});
    const std::uint64_t limit = static_cast<std::uint64_t>(
        pick({0, 1, 2, 3, static_cast<double>(rng.uniform(1'000)),
              static_cast<double>(rng.uniform(1u << 20)),
              static_cast<double>(rng.uniform(1ull << 40))}));
    if (rng.bernoulli(0.3) && limit > 0) {
      // Exactly on the condition's value at a random iteration.
      const std::uint64_t i = 1 + rng.uniform(limit);
      double effective =
          static_cast<double>(x.above + i * x.per_above) * x.couple_above +
          static_cast<double>(x.below + i * x.per_below) * x.couple_below;
      effective *= x.factor;
      x.threshold = effective;
    } else {
      x.threshold = pick({0.0, static_cast<double>(rng.uniform(1u << 19)),
                          static_cast<double>(1 + rng.uniform(400'000)),
                          1e18});
    }
    const std::uint64_t got = x.first(limit);
    ASSERT_EQ(got, bisect_first(x, limit))
        << "trial " << trial << " limit " << limit << " threshold "
        << x.threshold << " factor " << x.factor;
    if (limit <= 64) {
      std::uint64_t linear = 1;
      while (linear <= limit && !x.crosses(linear)) ++linear;
      ASSERT_EQ(got, linear) << "trial " << trial;
    }
  }
}

TEST(HammerBurstDifferential, ResumesMidWindowWithPriorState) {
  // A burst issued after unrelated traffic (partially filled disturbance
  // counters, TRR sampler state, part of the window consumed) must continue
  // from that state exactly as the slow path does.
  const Geometry g = small_geometry();
  const DeviceParams p = base_params(true, false);
  DramDevice slow_dev(g, p, 21);
  DramDevice burst_dev(g, p, 21);
  slow_dev.fill(0, 0xAA, g.total_bytes());
  burst_dev.fill(0, 0xAA, g.total_bytes());

  const PhysAddr warm_a = slow_dev.mapping().encode({0, 0, 0, 19, 0});
  const PhysAddr warm_b = slow_dev.mapping().encode({0, 0, 0, 21, 0});
  for (int i = 0; i < 900; ++i) {
    slow_dev.access(i % 2 ? warm_a : warm_b);
    burst_dev.access(i % 2 ? warm_a : warm_b);
  }
  slow_dev.advance(100 * kMicrosecond);
  burst_dev.advance(100 * kMicrosecond);

  const std::vector<PhysAddr> pair = {warm_a, warm_b};
  for (std::uint64_t i = 0; i < 18'000; ++i)
    for (const PhysAddr a : pair) slow_dev.access(a);
  burst_dev.hammer_burst(pair, 18'000);
  expect_identical(capture(slow_dev), capture(burst_dev), "mid-window");
}

/// Simulated time of one steady iteration of `shape`: the latency sum of
/// its second pass on a fresh device (the first pass opens the rows).
SimTime iteration_ns(const DeviceParams& params,
                     const std::vector<DramAddress>& shape) {
  DramDevice dev(small_geometry(), params, 1);
  for (const DramAddress& c : shape) dev.access(dev.mapping().encode(c));
  SimTime sum = 0;
  for (const DramAddress& c : shape) sum += dev.access(dev.mapping().encode(c));
  return sum;
}

/// A TRR threshold placed against the weak cells' activation thresholds
/// (2K..12K in base_params), with a refresh window that holds several
/// interventions per aggressor row.
struct TrrRegime {
  const char* name;
  std::uint32_t threshold;
  SimTime window;
};

/// Far below every cell threshold (a victim gathers at most 2x the TRR
/// threshold between resets, so nothing flips and every window is pure TRR
/// cycles); between the cell thresholds (flips land inside the first
/// cycles, and each flip restarts the cycle search); above them (cells
/// flip before TRR first intervenes).
constexpr TrrRegime kTrrRegimes[] = {
    {"trr-far-below", 200, 1 * kMillisecond},
    {"trr-between", 3'000, 2 * kMillisecond},
    {"trr-above", 15'000, 8 * kMillisecond},
};

/// Aggressor shapes: a double-sided pair; the pair with `a` again (a row
/// hit, then a conflict); `a` twice per iteration, so its interventions
/// come twice as often as `b`'s and `c`'s; four-sided, within the
/// sampler's 8 entries.
const std::vector<std::pair<std::string, std::vector<DramAddress>>>&
cycle_shapes() {
  static const std::vector<std::pair<std::string, std::vector<DramAddress>>>
      shapes = {
          {"{a,b}", {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0}}},
          {"{a,b,a}", {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0}, {0, 0, 0, 19, 0}}},
          {"{a,b,a,c}",
           {{0, 0, 0, 19, 0}, {0, 0, 0, 21, 0}, {0, 0, 0, 19, 0},
            {0, 0, 0, 40, 0}}},
          {"4-sided",
           {{0, 0, 0, 10, 0}, {0, 0, 0, 12, 0}, {0, 0, 0, 14, 0},
            {0, 0, 0, 16, 0}}},
      };
  return shapes;
}

TEST(HammerBurstCycles, MultiWindowBurstsEveryShapeAndRegime) {
  // Bursts of 3.5 refresh windows: each window repeats its TRR cycle many
  // times, so the burst skips whole cycles and steps only the first few
  // interventions of each window and those before its refresh.
  std::size_t between_flips = 0;
  std::uint64_t far_below_hits = 0;
  for (const TrrRegime& regime : kTrrRegimes) {
    for (const auto& [name, shape] : cycle_shapes()) {
      for (const bool ecc : {false, true}) {
        DeviceParams p = base_params(true, ecc);
        p.trr.threshold = regime.threshold;
        p.timings.refresh_window_ns = regime.window;
        const std::uint64_t iterations =
            7 * regime.window / (2 * iteration_ns(p, shape));
        const std::string label = std::string(regime.name) + " " + name +
                                  (ecc ? " ecc" : " no-ecc");
        const Outcome out =
            run_differential(p, 21, shape, iterations, label);
        EXPECT_GE(out.refreshes, 3u) << label;
        if (regime.threshold == 200) {
          EXPECT_TRUE(out.flips.empty()) << label;
          far_below_hits += out.trr_hits;
        }
        if (regime.threshold == 3'000) between_flips += out.flips.size();
      }
    }
  }
  EXPECT_GT(far_below_hits, 0u);
  EXPECT_GT(between_flips, 0u);
}

TEST(HammerBurstCycles, ResumesMidWindowWithOutOfPhaseSampler) {
  // Prior traffic leaves the aggressors' sampler counts apart (a at 137, b
  // at 61 above their shared count) and a third of the window used, so
  // their interventions alternate and the first states after the burst
  // starts differ from the ones that recur.
  for (const TrrRegime& regime : kTrrRegimes) {
    DeviceParams p = base_params(true, false);
    p.trr.threshold = regime.threshold;
    p.timings.refresh_window_ns = regime.window;
    const DramAddress a = {0, 0, 0, 19, 0};
    const DramAddress b = {0, 0, 0, 21, 0};
    const DramAddress z = {0, 0, 0, 50, 0};
    const Prepare prior = [&](DramDevice& dev) {
      const PhysAddr pa = dev.mapping().encode(a);
      const PhysAddr pb = dev.mapping().encode(b);
      const PhysAddr pz = dev.mapping().encode(z);
      for (int i = 0; i < 137; ++i) {
        dev.access(pa);
        dev.access(pz);
      }
      for (int i = 0; i < 61; ++i) {
        dev.access(pb);
        dev.access(pz);
      }
    };
    const std::vector<DramAddress> pair = {a, b};
    const std::uint64_t iterations =
        7 * regime.window / (2 * iteration_ns(p, pair));
    const Outcome out =
        run_differential(p, 33, pair, iterations,
                         std::string("mid-window ") + regime.name,
                         regime.window / 3, prior);
    EXPECT_GE(out.refreshes, 3u) << regime.name;
  }
}

TEST(HammerBurstCycles, VictimCountersKeepATransientOutOfTheCycle) {
  // The aggressors' sampler counts alone can recur while a victim row's
  // counters do not. Row a-1 is reset by a TRR intervention on a-2 after a
  // was activated c_a times, so a-1 trails a's sampler count by c_a until
  // a's first intervention. Row a-1 holds the one cell that can flip: fully
  // coupled to row a only, with threshold t, and the TRR threshold is
  // t + c_a / 2. While a-1 trails, its counter peaks below t; once a's
  // count and a-1's agree, it peaks at the TRR threshold and the cell
  // flips. b starts ahead of a, so b's first two interventions see the
  // same sampler counts with a-1 behind, then caught up: a cycle found on
  // the sampler alone would skip that flip.
  constexpr std::uint32_t kLagA = 300;   // c_a
  constexpr std::uint32_t kLeadB = 600;  // b's sampler count at the start
  const Geometry g = small_geometry();
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    DeviceParams p = base_params(true, false);
    p.weak_cells.cells_per_mib = 256.0;
    p.data_pattern_sensitivity = false;  // effective = counter x coupling
    p.timings.refresh_window_ns = 8 * kMillisecond;
    const DramDevice model(g, p, seed);
    const auto cells = [&](std::uint32_t row) {
      return model.weak_cells().cells_in_row(row);  // bank 0
    };
    // Rows a-3..a+1 and b-1..b+1 sit in bank 0 apart from each other and
    // from the helper row z = 62 and its neighbours.
    for (std::uint32_t a = 3; a + 8 < 60; ++a) {
      const WeakCellSpan lagging = cells(a - 1);
      WeakCell target;
      std::size_t below_only = 0;
      for (const WeakCell& cell : lagging)
        if (cell.couple_above == 0.0F && cell.couple_below == 1.0F &&
            (below_only++ == 0 || cell.threshold < target.threshold))
          target = cell;
      if (below_only == 0) continue;
      const std::uint32_t trr = target.threshold + kLagA / 2;
      const auto quiet = [&](std::uint32_t row, bool allow_target) {
        for (const WeakCell& cell : cells(row))
          if (cell.threshold <= trr + 1 &&
              !(allow_target && cell.col == target.col &&
                cell.bit == target.bit))
            return false;
        return true;
      };
      if (!quiet(a - 1, true) || !quiet(a + 1, false)) continue;
      for (std::uint32_t b = a + 5; b + 3 < 60; ++b) {
        if (!quiet(b - 1, false) || !quiet(b + 1, false)) continue;
        p.trr.threshold = trr;
        const DramAddress ra = {0, 0, 0, a, 0};
        const DramAddress rb = {0, 0, 0, b, 0};
        const Prepare prior = [&](DramDevice& dev) {
          // The victim row charged for the target cell.
          dev.fill(dev.mapping().encode({0, 0, 0, a - 1, 0}),
                   target.true_cell ? 0xFF : 0x00, g.row_bytes);
          const PhysAddr pa = dev.mapping().encode(ra);
          const PhysAddr pb = dev.mapping().encode(rb);
          const PhysAddr pz = dev.mapping().encode({0, 0, 0, 62, 0});
          const PhysAddr reset = dev.mapping().encode({0, 0, 0, a - 2, 0});
          for (std::uint32_t i = 0; i < kLagA; ++i) {
            dev.access(pa);
            dev.access(pb);
          }
          for (std::uint32_t i = kLagA; i < kLeadB; ++i) {
            dev.access(pb);
            dev.access(pz);
          }
          for (std::uint32_t i = 0; i < trr; ++i) {  // resets a-1 at the end
            dev.access(reset);
            dev.access(pz);
          }
        };
        const Outcome out = run_differential(p, seed, {ra, rb}, 4ull * trr,
                                             "lagging victim", 0, prior);
        const PhysAddr at =
            model.mapping().encode({0, 0, 0, a - 1, target.col});
        bool flipped = false;
        for (const FlipEvent& flip : out.flips)
          flipped |= flip.addr == at && flip.bit == target.bit;
        EXPECT_TRUE(flipped) << "seed " << seed << " a " << a << " b " << b;
        return;
      }
    }
  }
  FAIL() << "no seed gives a lagging-victim layout";
}

TEST(HammerBurstDifferential, HammerEngineUsesBurstPath) {
  // HammerEngine::hammer rides the burst path; its result must match a
  // hand-rolled per-access loop byte for byte.
  const Geometry g = small_geometry();
  const DeviceParams p = base_params(false, false);
  DramDevice slow_dev(g, p, 21);
  DramDevice engine_dev(g, p, 21);
  slow_dev.fill(0, 0xAA, g.total_bytes());
  engine_dev.fill(0, 0xAA, g.total_bytes());

  const PhysAddr a = slow_dev.mapping().encode({0, 0, 0, 19, 0});
  const PhysAddr b = slow_dev.mapping().encode({0, 0, 0, 21, 0});
  const SimTime slow_start = slow_dev.now();
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    slow_dev.access(a);
    slow_dev.access(b);
  }
  const SimTime slow_elapsed = slow_dev.now() - slow_start;

  HammerEngine engine(engine_dev);
  const PhysAddr pair[2] = {a, b};
  const HammerResult r = engine.hammer(pair, 20'000);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.iterations, 20'000u);
  EXPECT_EQ(r.elapsed, slow_elapsed);
  // engine.hammer drains the device's flip log into r.flips; put the events
  // back into an Outcome so the comparison covers them too.
  Outcome engine_out = capture(engine_dev);
  EXPECT_TRUE(engine_out.flips.empty());  // drained by the engine
  engine_out.flips = r.flips;
  expect_identical(capture(slow_dev), engine_out, "engine");
}

}  // namespace
}  // namespace explframe::dram
