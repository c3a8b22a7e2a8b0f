// Representation-differential test: the packed-SoA DramDevice against the
// frozen pre-refactor layout in reference_dram.hpp.
//
// Both implementations are driven through identical operation storms —
// pattern fills, double-sided hammering (burst fast path vs the reference
// per-access loop), ECC-filtered reads, fault injection, refreshes and a
// snapshot/restore cycle — and every observable is asserted equal: the
// drained flip-event sequence, all statistics counters, read-back bytes,
// the device clock and the captured Image contents. The storm repeats for
// all four defence configurations and for every scenario in the built-in
// registry, so any divergence the packed representation could introduce
// shows up here before it could touch a golden report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "dram/address_mapping.hpp"
#include "dram/dram_device.hpp"
#include "dram/geometry.hpp"
#include "kernel/system.hpp"
#include "reference_dram.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace explframe::dram {
namespace {

/// Invert flat_row(): the coordinate (col 0) of a flat row index.
DramAddress coord_of_flat_row(const Geometry& g, std::uint64_t fr) {
  DramAddress c;
  c.row = static_cast<std::uint32_t>(fr % g.rows_per_bank);
  const std::uint64_t fb = fr / g.rows_per_bank;
  c.bank = static_cast<std::uint32_t>(fb % g.banks);
  const std::uint64_t rr = fb / g.banks;
  c.rank = static_cast<std::uint32_t>(rr % g.ranks);
  c.channel = static_cast<std::uint32_t>(rr / g.ranks);
  c.col = 0;
  return c;
}

/// The packed arena and the reference map hold the same population: same
/// vulnerable rows, same count, and each row's cells decode identically in
/// the same per-row order (same RNG stream, same per-row insertion order).
void expect_same_population(const WeakCellModel& arena,
                            const refdram::RefWeakCellModel& ref) {
  const auto rows = arena.vulnerable_rows();
  ASSERT_EQ(rows, ref.vulnerable_rows());
  ASSERT_EQ(arena.total_cells(), ref.total_cells());
  for (const std::uint64_t row : rows) {
    const auto span = arena.cells_in_row(row);
    const auto& vec = ref.cells_in_row(row);
    ASSERT_EQ(span.size(), vec.size());
    for (std::size_t i = 0; i < vec.size(); ++i) {
      const WeakCell a = span[i];
      const WeakCell& b = vec[i];
      EXPECT_EQ(a.col, b.col);
      EXPECT_EQ(a.bit, b.bit);
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.true_cell, b.true_cell);
      EXPECT_EQ(a.couple_above, b.couple_above);
      EXPECT_EQ(a.couple_below, b.couple_below);
    }
  }
}

/// The packed device and the reference device built from one configuration,
/// plus the storm utilities that drive both and assert equality.
class DevicePair {
 public:
  DevicePair(const Geometry& geometry, const DeviceParams& params,
             std::uint64_t seed)
      : geometry_(geometry),
        params_(params),
        mapping_(geometry, params.mapping),
        dev_(geometry, params, seed),
        ref_(geometry, params, seed) {}

  DramDevice& dev() { return dev_; }
  refdram::RefDevice& ref() { return ref_; }
  const Geometry& geometry() const { return geometry_; }
  const AddressMapping& mapping() const { return mapping_; }

  /// Weak-cell populations decode identically — the precondition for
  /// everything else.
  void expect_same_population() {
    dram::expect_same_population(dev_.weak_cells(), ref_.weak_cells());
  }

  /// Every statistics counter and the device clock agree.
  void expect_same_counters() {
    EXPECT_EQ(dev_.now(), ref_.now());
    EXPECT_EQ(dev_.mutation_epoch(), ref_.mutation_epoch());
    EXPECT_EQ(dev_.total_flips(), ref_.total_flips());
    EXPECT_EQ(dev_.total_activations(), ref_.total_activations());
    EXPECT_EQ(dev_.refresh_count(), ref_.refresh_count());
    EXPECT_EQ(dev_.trr_interventions(), ref_.trr_interventions());
    EXPECT_EQ(dev_.ecc_corrected_bits(), ref_.ecc_corrected_bits());
    EXPECT_EQ(dev_.ecc_uncorrectable_words(), ref_.ecc_uncorrectable_words());
  }

  /// Drain both flip logs and require identical event sequences.
  void expect_same_flips() {
    const auto a = dev_.drain_flips();
    const auto b = ref_.drain_flips();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].addr, b[i].addr) << "event " << i;
      EXPECT_EQ(a[i].coord, b[i].coord) << "event " << i;
      EXPECT_EQ(a[i].bit, b[i].bit) << "event " << i;
      EXPECT_EQ(a[i].to_one, b[i].to_one) << "event " << i;
      EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    }
  }

  /// Read `len` bytes at `addr` from both devices (exercising the ECC
  /// filter identically) and require identical bytes.
  void expect_same_bytes(PhysAddr addr, std::size_t len) {
    std::vector<std::uint8_t> a(len), b(len);
    dev_.read(addr, a);
    ref_.read(addr, b);
    EXPECT_EQ(a, b) << "read at " << addr;
  }

  /// Apply one mutation to both sides.
  void write_both(PhysAddr addr, std::span<const std::uint8_t> bytes) {
    dev_.write(addr, bytes);
    ref_.write(addr, bytes);
  }
  void fill_both(PhysAddr addr, std::uint8_t value, std::uint64_t len) {
    dev_.fill(addr, value, len);
    ref_.fill(addr, value, len);
  }
  void access_both(PhysAddr addr) {
    EXPECT_EQ(dev_.access(addr), ref_.access(addr));
  }
  void hammer_both(std::span<const PhysAddr> aggressors,
                   std::uint64_t iterations) {
    // The packed side takes the analytic burst fast path; the reference
    // runs the plain per-access loop. Bit-identical results required.
    dev_.hammer_burst(aggressors, iterations);
    ref_.hammer(aggressors, iterations);
  }
  void idle_both(SimTime duration) {
    dev_.advance(duration);
    ref_.idle(duration);
  }
  void refresh_both() {
    dev_.refresh_now();
    ref_.refresh_now();
  }
  void inject_both(PhysAddr addr, std::uint8_t bit) {
    dev_.inject_flip(addr, bit);
    ref_.inject_flip(addr, bit);
  }

  /// Aggressor addresses (col 0 of row±1) around a vulnerable flat row.
  std::vector<PhysAddr> aggressors_around(std::uint64_t victim_flat) {
    DramAddress victim = coord_of_flat_row(geometry_, victim_flat);
    std::vector<PhysAddr> aggs;
    if (victim.row > 0) {
      DramAddress a = victim;
      a.row -= 1;
      aggs.push_back(mapping_.encode(a));
    }
    if (victim.row + 1 < geometry_.rows_per_bank) {
      DramAddress a = victim;
      a.row += 1;
      aggs.push_back(mapping_.encode(a));
    }
    return aggs;
  }

  /// Semantic equality of captured images: CoW row payloads, row-buffer
  /// state, disturbance counters (packed ordinals translated back to flat
  /// rows; zeroed entries dropped — the reference erases where the packed
  /// table zeroes in place), flip logs, live-flip records, the TRR sampler
  /// and every scalar.
  void expect_same_image(const DramDevice::Image& p,
                         const refdram::RefDevice::Image& r) {
    ASSERT_EQ(p.state.rows.size(), r.rows.size());
    for (const auto& [row, bytes] : r.rows) {
      const auto it = p.state.rows.find(row);
      ASSERT_NE(it, p.state.rows.end()) << "row " << row;
      EXPECT_EQ(0, std::memcmp(it->second.get(), bytes.get(),
                               geometry_.row_bytes))
          << "row " << row;
    }
    EXPECT_EQ(p.state.open_row, r.open_row);

    using Dist = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;
    std::vector<Dist> pd, rd;
    const RowIndex& index = dev_.weak_cells().row_index();
    for (const auto& e : p.disturbance)
      if (e.above != 0 || e.below != 0)
        pd.emplace_back(index.key_at(e.ordinal), e.above, e.below);
    for (const auto& [row, d] : r.disturbance)
      if (d.acts_above != 0 || d.acts_below != 0)
        rd.emplace_back(row, d.acts_above, d.acts_below);
    std::sort(pd.begin(), pd.end());
    std::sort(rd.begin(), rd.end());
    EXPECT_EQ(pd, rd);

    ASSERT_EQ(p.state.flips.size(), r.flips.size());
    for (std::size_t i = 0; i < r.flips.size(); ++i) {
      EXPECT_EQ(p.state.flips.addr_at(i), r.flips[i].addr);
      EXPECT_EQ(p.state.flips.bit_at(i), r.flips[i].bit);
      EXPECT_EQ(p.state.flips.to_one_at(i), r.flips[i].to_one);
      EXPECT_EQ(p.state.flips.time_at(i), r.flips[i].time);
    }

    std::size_t ref_live = 0;
    for (const auto& [row, flips] : r.live_flips) {
      ref_live += flips.size();
      const auto range = p.state.live_flips.row_range(row);
      ASSERT_EQ(range.end - range.begin, flips.size()) << "row " << row;
      for (std::size_t i = 0; i < flips.size(); ++i) {
        EXPECT_EQ(p.state.live_flips.col_at(range.begin + i), flips[i].col);
        EXPECT_EQ(p.state.live_flips.bit_at(range.begin + i), flips[i].bit);
      }
    }
    EXPECT_EQ(p.state.live_flips.size(), ref_live);

    ASSERT_EQ(p.state.trr_sampler.size(), r.trr_sampler.size());
    for (const auto& [row, count] : r.trr_sampler) {
      const std::size_t slot = p.state.trr_sampler.find(row);
      ASSERT_NE(slot, TrrSampler::kNpos) << "row " << row;
      EXPECT_EQ(p.state.trr_sampler.count(slot), count);
    }

    EXPECT_EQ(p.state.now, r.now);
    EXPECT_EQ(p.state.next_refresh, r.next_refresh);
    EXPECT_EQ(p.state.mutation_epoch, r.mutation_epoch);
    EXPECT_EQ(p.state.total_flips, r.total_flips);
    EXPECT_EQ(p.state.total_acts, r.total_acts);
    EXPECT_EQ(p.state.refreshes, r.refreshes);
    EXPECT_EQ(p.state.trr_hits, r.trr_hits);
    EXPECT_EQ(p.state.ecc_corrected, r.ecc_corrected);
    EXPECT_EQ(p.state.ecc_uncorrectable, r.ecc_uncorrectable);
  }

 private:
  Geometry geometry_;
  DeviceParams params_;
  AddressMapping mapping_;
  DramDevice dev_;
  refdram::RefDevice ref_;
};

/// A dense, easily-flipped population so every defence path actually fires
/// within a short storm.
DeviceParams vulnerable_params() {
  DeviceParams params;
  params.weak_cells.cells_per_mib = 64.0;
  params.weak_cells.threshold_log_mean = 10.4;
  params.weak_cells.threshold_min = 25'000;
  params.trr.threshold = 9'000;
  return params;
}

/// The full storm: pattern fills, double-sided hammering in both stored-bit
/// polarities, ECC-filtered read-back, fault injection into one ECC word,
/// random writes/reads, per-access equivalence, refresh/idle boundaries and
/// one snapshot/restore cycle.
void run_storm(DevicePair& pair, std::uint64_t rng_seed) {
  pair.expect_same_population();

  const Geometry& g = pair.geometry();
  const auto rows = pair.dev().weak_cells().vulnerable_rows();
  ASSERT_FALSE(rows.empty());

  // Hammer four victim rows spread across the module, each with all-ones
  // stored bits (true cells flip) then all-zeros (anti cells flip). 60K
  // double-sided iterations clear the lognormal threshold distribution's
  // bulk; a refresh between polarities restarts the disturbance window.
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t victim = rows[rows.size() / 4 * k];
    const PhysAddr addr = pair.mapping().encode(coord_of_flat_row(g, victim));
    const auto aggs = pair.aggressors_around(victim);
    ASSERT_FALSE(aggs.empty());
    pair.fill_both(addr, 0xFF, g.row_bytes);
    pair.hammer_both(aggs, 60'000);
    pair.expect_same_counters();
    pair.expect_same_bytes(addr, g.row_bytes);
    pair.expect_same_counters();  // ECC read-back updated both sides alike
    pair.refresh_both();
    pair.fill_both(addr, 0x00, g.row_bytes);
    pair.hammer_both(aggs, 60'000);
    pair.expect_same_bytes(addr, g.row_bytes);
    pair.expect_same_counters();
  }
  pair.expect_same_flips();

  const std::uint64_t victim = rows[rows.size() / 2];
  const PhysAddr victim_addr =
      pair.mapping().encode(coord_of_flat_row(g, victim));
  const auto aggs = pair.aggressors_around(victim);
  ASSERT_FALSE(aggs.empty());

  // Two injected flips into one 64-bit ECC word: uncorrectable on read.
  pair.inject_both(victim_addr + 8, 1);
  pair.inject_both(victim_addr + 9, 6);
  pair.expect_same_bytes(victim_addr, 64);
  pair.expect_same_counters();

  // Snapshot, keep mutating, then roll back and require the restored
  // worlds to agree — including the captured images themselves.
  const auto dev_image = pair.dev().capture_image();
  const auto ref_image = pair.ref().capture_image();
  pair.expect_same_image(dev_image, ref_image);

  pair.fill_both(victim_addr, 0xA5, g.row_bytes);
  pair.hammer_both(aggs, 7'500);
  pair.expect_same_counters();

  pair.dev().restore_image(dev_image);
  pair.ref().restore_image(ref_image);
  pair.expect_same_counters();
  pair.expect_same_bytes(victim_addr, g.row_bytes);

  // Refresh boundaries: explicit, then implicit via idle.
  pair.refresh_both();
  pair.hammer_both(aggs, 10'000);
  pair.idle_both(70 * kMillisecond);
  pair.expect_same_counters();

  // Random write/read/access storm over the whole module.
  Rng rng(rng_seed);
  std::vector<std::uint8_t> buf(256);
  for (int i = 0; i < 64; ++i) {
    const PhysAddr addr = rng.uniform(g.total_bytes() - buf.size());
    rng.fill_bytes(buf);
    pair.write_both(addr, buf);
    pair.expect_same_bytes(addr, buf.size());
  }
  for (int i = 0; i < 512; ++i)
    pair.access_both(rng.uniform(g.total_bytes()));

  pair.expect_same_flips();
  pair.expect_same_counters();
}

class PackedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PackedDifferential, StormMatchesReferenceAcrossDefences) {
  DeviceParams params = vulnerable_params();
  const int defence = GetParam();
  params.trr.enabled = defence == 1 || defence == 3;
  params.ecc.enabled = defence == 2 || defence == 3;
  DevicePair pair(Geometry::with_capacity(64 * kMiB), params, 1234);
  run_storm(pair, 99 + static_cast<std::uint64_t>(defence));

  // The storm must exercise the path it certifies: undefended (and
  // ECC-only) configs flip bits; TRR configs intervene; ECC configs
  // filter at least the two colliding injected flips.
  if (!params.trr.enabled) {
    EXPECT_GT(pair.dev().total_flips(), 0u);
  }
  if (params.trr.enabled) {
    EXPECT_GT(pair.dev().trr_interventions(), 0u);
  }
  if (params.ecc.enabled) {
    EXPECT_GT(pair.dev().ecc_corrected_bits() +
                  pair.dev().ecc_uncorrectable_words(),
              0u);
  }
}

std::string defence_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"none", "trr", "ecc", "trr_ecc"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllDefenceConfigs, PackedDifferential,
                         ::testing::Values(0, 1, 2, 3), defence_name);

/// Bank-XOR mapping changes aggressor adjacency; the representations must
/// still agree (the packed device re-derives coordinates from addresses).
TEST(PackedDifferential, StormMatchesUnderBankXorMapping) {
  DeviceParams params = vulnerable_params();
  params.mapping = MappingScheme::kBankXor;
  params.trr.enabled = true;
  params.ecc.enabled = true;
  DevicePair pair(Geometry::with_capacity(64 * kMiB), params, 77);
  run_storm(pair, 7);
}

/// Every registered scenario's derived machine, under a shorter storm: the
/// exact geometry/defence/weak-cell configurations the handbook runs are
/// all certified against the reference layout.
TEST(PackedDifferential, EveryRegisteredScenarioMatchesReference) {
  for (const scenario::Scenario& s : scenario::Registry::builtin().all()) {
    SCOPED_TRACE(s.name);
    const attack::RunnerConfig cfg = s.runner_config();
    const Geometry g = Geometry::with_capacity(cfg.system.memory_bytes);
    DevicePair pair(g, cfg.system.dram, s.seed);
    pair.expect_same_population();

    const auto rows = pair.dev().weak_cells().vulnerable_rows();
    if (!rows.empty()) {
      const std::uint64_t victim = rows.front();
      const PhysAddr victim_addr =
          pair.mapping().encode(coord_of_flat_row(g, victim));
      pair.fill_both(victim_addr, 0xFF, g.row_bytes);
      pair.hammer_both(pair.aggressors_around(victim), 60'000);
      pair.expect_same_bytes(victim_addr, g.row_bytes);
    }

    const auto dev_image = pair.dev().capture_image();
    const auto ref_image = pair.ref().capture_image();
    pair.expect_same_image(dev_image, ref_image);
    pair.refresh_both();
    pair.dev().restore_image(dev_image);
    pair.ref().restore_image(ref_image);

    pair.expect_same_flips();
    pair.expect_same_counters();
  }
}

/// The sampled arena against the reference map for every non-empty cell
/// profile the scenarios use, at both campaign module sizes and at a
/// geometry of 2^23 flat rows (small rows keep the population modest),
/// where the arena's radix sort by row needs three digit passes instead of
/// two. Four seeds each.
TEST(PackedDifferential, SampledArenaMatchesReference) {
  Geometry wide;
  wide.rows_per_bank = 1u << 20;  // 8 banks x 2^20 = 2^23 flat rows
  wide.row_bytes = 32;
  ASSERT_GT(wide.total_rows(), 1ull << 22);
  const Geometry geometries[] = {Geometry::with_capacity(16 * kMiB),
                                 Geometry::with_capacity(64 * kMiB), wide};
  for (const scenario::WeakCellProfile profile :
       {scenario::WeakCellProfile::kRealistic,
        scenario::WeakCellProfile::kVulnerable,
        scenario::WeakCellProfile::kDense}) {
    kernel::SystemConfig config;
    scenario::apply_weak_cell_profile(profile, config);
    const WeakCellParams& params = config.dram.weak_cells;
    for (const Geometry& g : geometries) {
      for (const std::uint64_t seed : {1ull, 2ull, 20261016ull, 0xfeedull}) {
        SCOPED_TRACE(testing::Message()
                     << "cells/MiB " << params.cells_per_mib << ", "
                     << g.total_rows() << " rows, seed " << seed);
        const WeakCellModel arena(g, params, seed);
        const refdram::RefWeakCellModel ref(g, params, seed);
        ASSERT_GT(arena.total_cells(), 0u);
        expect_same_population(arena, ref);
      }
    }
  }
}

/// Regression for the arena canonicalisation: presenting the same per-row
/// cell sequences in a different global interleaving must produce the same
/// model (the seed's unordered_map made global order invisible; the arena
/// must too).
TEST(PackedDifferential, ArenaIndependentOfInsertionOrder) {
  const Geometry g = Geometry::with_capacity(64 * kMiB);
  const WeakCellParams params;

  const auto cell = [](std::uint32_t col, std::uint8_t bit,
                       std::uint32_t threshold, bool true_cell,
                       float above, float below) {
    WeakCell c;
    c.col = col;
    c.bit = bit;
    c.threshold = threshold;
    c.true_cell = true_cell;
    c.couple_above = above;
    c.couple_below = below;
    return c;
  };
  // Three rows; row 900 holds a later duplicate of (col 7, bit 2) that the
  // canonicaliser must drop in favour of the first record, and row 12 one
  // of (col 100, bit 0) presented after other rows' records. Row 4000 also
  // holds a (col 100, bit 0) cell, which is no duplicate: dedup is per row.
  const auto r900a = cell(7, 2, 30'000, true, 1.0F, 0.75F);
  const auto r900b = cell(11, 5, 40'000, false, 0.0F, 1.0F);
  const auto r900dup = cell(7, 2, 99'000, false, 1.0F, 1.0F);
  const auto r12 = cell(100, 0, 25'000, true, 1.0F, 0.5F);
  const auto r12dup = cell(100, 0, 88'000, false, 0.0F, 1.0F);
  const auto r4000 = cell(8000, 7, 60'000, false, 0.625F, 1.0F);
  const auto r4000b = cell(100, 0, 45'000, true, 1.0F, 0.0F);

  using Pop = std::vector<std::pair<std::uint64_t, WeakCell>>;
  const Pop forward = {{900, r900a},  {900, r900b},   {900, r900dup},
                       {12, r12},     {12, r12dup},   {4000, r4000},
                       {4000, r4000b}};
  const Pop shuffled = {{4000, r4000}, {12, r12},      {900, r900a},
                        {4000, r4000b}, {900, r900b},  {900, r900dup},
                        {12, r12dup}};

  WeakCellModel a(g, params, forward);
  WeakCellModel b(g, params, shuffled);

  const std::vector<std::uint64_t> expected_rows = {12, 900, 4000};
  EXPECT_EQ(a.vulnerable_rows(), expected_rows);
  EXPECT_EQ(b.vulnerable_rows(), expected_rows);
  ASSERT_EQ(a.total_cells(), 5u);  // both duplicates dropped
  ASSERT_EQ(b.total_cells(), 5u);
  EXPECT_EQ(a.state_bytes(), b.state_bytes());

  for (const std::uint64_t row : expected_rows) {
    const auto sa = a.cells_in_row(row);
    const auto sb = b.cells_in_row(row);
    ASSERT_EQ(sa.size(), sb.size()) << "row " << row;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      const WeakCell ca = sa[i], cb = sb[i];
      EXPECT_EQ(ca.col, cb.col);
      EXPECT_EQ(ca.bit, cb.bit);
      EXPECT_EQ(ca.threshold, cb.threshold);
      EXPECT_EQ(ca.true_cell, cb.true_cell);
      EXPECT_EQ(ca.couple_above, cb.couple_above);
      EXPECT_EQ(ca.couple_below, cb.couple_below);
    }
  }
  // Each duplicate kept the FIRST record's payload.
  const auto span = a.cells_in_row(900);
  EXPECT_EQ(span[0].threshold, 30'000u);
  EXPECT_TRUE(span[0].true_cell);
  const auto row12 = a.cells_in_row(12);
  ASSERT_EQ(row12.size(), 1u);
  EXPECT_EQ(row12[0].threshold, 25'000u);
  // The same (col, bit) in another row is kept.
  const auto row4000 = a.cells_in_row(4000);
  ASSERT_EQ(row4000.size(), 2u);
  EXPECT_EQ(row4000[1].col, 100u);
  EXPECT_EQ(row4000[1].threshold, 45'000u);
}

}  // namespace
}  // namespace explframe::dram
