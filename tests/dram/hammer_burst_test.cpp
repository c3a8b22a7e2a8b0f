// Differential test for DramDevice::hammer_burst: the batched path must be
// bit-identical to the per-access loop — same flip sequence (address, bit,
// direction, simulated time), same refresh count, same TRR interventions and
// ECC bookkeeping, same final memory image — on a small geometry under all
// four defence configurations (none / TRR / ECC / TRR+ECC).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_device.hpp"
#include "dram/hammer.hpp"

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
}

/// Runs the same aggressor burst through the per-access loop and through
/// hammer_burst on identically seeded devices, both first idle for `start`,
/// and asserts every observable matches, including that the burst's elapsed
/// time is the sum of the latencies access() returned. Returns the number
/// of flips (so callers can assert coverage).
std::size_t run_differential(const DeviceParams& params, std::uint64_t seed,
                             const std::vector<DramAddress>& aggressors,
                             std::uint64_t iterations,
                             const std::string& label, SimTime start = 0) {
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

  slow_dev.idle(start);
  burst_dev.idle(start);
  SimTime latency_sum = 0;
  for (std::uint64_t i = 0; i < iterations; ++i)
    for (const PhysAddr a : addrs) latency_sum += slow_dev.access(a);
  const SimTime burst_start = burst_dev.now();
  burst_dev.hammer_burst(addrs, iterations);
  EXPECT_EQ(burst_dev.now() - burst_start, latency_sum) << label;

  const Outcome slow = capture(slow_dev);
  const Outcome burst = capture(burst_dev);
  expect_identical(slow, burst, label);
  return slow.flips.size();
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
                           "double-sided " + config_label(trr, ecc));
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
                  std::string("probe ") + to_string(mapping) + " " +
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
  slow_dev.idle(100 * kMicrosecond);
  burst_dev.idle(100 * kMicrosecond);

  const std::vector<PhysAddr> pair = {warm_a, warm_b};
  for (std::uint64_t i = 0; i < 18'000; ++i)
    for (const PhysAddr a : pair) slow_dev.access(a);
  burst_dev.hammer_burst(pair, 18'000);
  expect_identical(capture(slow_dev), capture(burst_dev), "mid-window");
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
