#include "dram/dram_device.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.hpp"

namespace explframe::dram {
namespace {

DeviceParams quiet_params() {
  DeviceParams p;
  p.weak_cells.cells_per_mib = 0.0;  // no flips unless a test plants them
  return p;
}

TEST(DramDeviceDeathTest, RejectsZeroRefreshWindow) {
  // A zero tREFW would make advance() loop forever on the first access.
  DeviceParams p = quiet_params();
  p.timings.refresh_window_ns = 0;
  EXPECT_DEATH(DramDevice(Geometry::with_capacity(64 * kMiB), p, 1),
               "refresh_window_ns");
}

TEST(DramDeviceDeathTest, RejectsRowlessGeometry) {
  Geometry g;
  g.rows_per_bank = 0;
  EXPECT_DEATH(DramDevice(g, quiet_params(), 1), "geometry");
  Geometry g2;
  g2.row_bytes = 0;
  EXPECT_DEATH(DramDevice(g2, quiet_params(), 1), "geometry");
}

TEST(DramDevice, ReadBackWrittenData) {
  DramDevice dev(Geometry::with_capacity(64 * kMiB), quiet_params(), 1);
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  dev.write(12345, data);
  std::vector<std::uint8_t> out(100);
  dev.read(12345, out);
  EXPECT_EQ(data, out);
}

TEST(DramDevice, UntouchedMemoryReadsZero) {
  DramDevice dev(Geometry::with_capacity(64 * kMiB), quiet_params(), 1);
  std::vector<std::uint8_t> out(64, 0xAA);
  dev.read(9999, out);
  for (const auto b : out) EXPECT_EQ(b, 0);
}

TEST(DramDevice, ReadWriteAcrossRowBoundary) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, quiet_params(), 1);
  const PhysAddr addr = g.row_bytes - 10;  // spans two rows
  std::vector<std::uint8_t> data(32, 0x5A);
  dev.write(addr, data);
  std::vector<std::uint8_t> out(32);
  dev.read(addr, out);
  EXPECT_EQ(data, out);
}

TEST(DramDevice, FillThenRead) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, quiet_params(), 1);
  dev.fill(4096, 0xEE, 8192);
  EXPECT_EQ(dev.read_byte(4096), 0xEE);
  EXPECT_EQ(dev.read_byte(4096 + 8191), 0xEE);
  EXPECT_EQ(dev.read_byte(4095), 0x00);
  EXPECT_EQ(dev.read_byte(4096 + 8192), 0x00);
}

TEST(DramDevice, RowBufferHitVsConflict) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DeviceParams p = quiet_params();
  DramDevice dev(g, p, 1);
  AddressMapping map(g, p.mapping);
  DramAddress a{0, 0, 0, 100, 0};
  DramAddress b{0, 0, 0, 200, 0};

  EXPECT_EQ(dev.access(map.encode(a)), p.timings.row_conflict_ns);  // open
  EXPECT_EQ(dev.access(map.encode(a)), p.timings.row_hit_ns);       // hit
  EXPECT_EQ(dev.access(map.encode(b)), p.timings.row_conflict_ns);  // evict
  EXPECT_EQ(dev.access(map.encode(a)), p.timings.row_conflict_ns);
}

TEST(DramDevice, DifferentBanksDoNotConflict) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DeviceParams p = quiet_params();
  DramDevice dev(g, p, 1);
  AddressMapping map(g, p.mapping);
  DramAddress a{0, 0, 0, 100, 0};
  DramAddress b{0, 0, 1, 200, 0};
  dev.access(map.encode(a));
  dev.access(map.encode(b));
  EXPECT_EQ(dev.access(map.encode(a)), p.timings.row_hit_ns);
  EXPECT_EQ(dev.access(map.encode(b)), p.timings.row_hit_ns);
}

TEST(DramDevice, ClockAdvancesWithAccesses) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DeviceParams p = quiet_params();
  DramDevice dev(g, p, 1);
  const SimTime t0 = dev.now();
  dev.access(0);
  EXPECT_EQ(dev.now(), t0 + p.timings.row_conflict_ns);
  dev.advance(kMillisecond);
  EXPECT_EQ(dev.now(), t0 + p.timings.row_conflict_ns + kMillisecond);
}

TEST(DramDevice, RefreshHappensPeriodically) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DeviceParams p = quiet_params();
  DramDevice dev(g, p, 1);
  EXPECT_EQ(dev.refresh_count(), 0u);
  dev.advance(p.timings.refresh_window_ns * 3 + 10);
  EXPECT_EQ(dev.refresh_count(), 3u);
}

// Plant a deterministic weak cell by picking the device seed so that some
// cells exist, then find one and verify flip mechanics against it.
class DramDeviceHammerTest : public ::testing::Test {
 protected:
  DramDeviceHammerTest()
      : geometry_(Geometry::with_capacity(64 * kMiB)),
        params_(make_params()),
        dev_(geometry_, params_, 77),
        map_(geometry_, params_.mapping) {}

  static DeviceParams make_params() {
    DeviceParams p;
    p.weak_cells.cells_per_mib = 8.0;
    p.data_pattern_sensitivity = false;  // polarity-only for determinism
    return p;
  }

  /// Find a double-side-coupled, moderate-threshold weak cell whose row has
  /// both neighbours in range.
  bool find_cell(std::uint64_t& flat, WeakCell& cell) {
    for (const auto row : dev_.weak_cells().vulnerable_rows()) {
      const std::uint32_t in_bank =
          static_cast<std::uint32_t>(row % geometry_.rows_per_bank);
      if (in_bank == 0 || in_bank + 1 >= geometry_.rows_per_bank) continue;
      const auto& c = dev_.weak_cells().cells_in_row(row)[0];
      if (c.couple_above <= 0.0F || c.couple_below <= 0.0F) continue;
      if (c.threshold > 150'000) continue;
      flat = row;
      cell = c;
      return true;
    }
    return false;
  }

  DramAddress coord_of(std::uint64_t flat_row_index,
                       std::uint32_t col) const {
    DramAddress c;
    const auto rows = geometry_.rows_per_bank;
    const std::uint64_t bank_flat = flat_row_index / rows;
    c.row = static_cast<std::uint32_t>(flat_row_index % rows);
    c.bank = static_cast<std::uint32_t>(bank_flat % geometry_.banks);
    const std::uint64_t cr = bank_flat / geometry_.banks;
    c.rank = static_cast<std::uint32_t>(cr % geometry_.ranks);
    c.channel = static_cast<std::uint32_t>(cr / geometry_.ranks);
    c.col = col;
    return c;
  }

  Geometry geometry_;
  DeviceParams params_;
  DramDevice dev_;
  AddressMapping map_;
};

TEST_F(DramDeviceHammerTest, DoubleSidedHammerFlipsChargedCell) {
  std::uint64_t flat = 0;
  WeakCell cell;
  ASSERT_TRUE(find_cell(flat, cell));

  const DramAddress victim = coord_of(flat, cell.col);
  // Charge the cell: true cell stores 1, anti stores 0.
  dev_.write_byte(map_.encode(victim),
                  cell.true_cell ? static_cast<std::uint8_t>(1u << cell.bit)
                                 : 0);

  DramAddress above = victim;
  above.row -= 1;
  DramAddress below = victim;
  below.row += 1;
  const PhysAddr a = map_.encode(above);
  const PhysAddr b = map_.encode(below);

  // Hammer both sides well past the threshold; 2x budget guarantees a
  // contiguous over-threshold run inside one refresh window regardless of
  // where the window boundary falls.
  for (std::uint32_t i = 0; i < 2 * cell.threshold + 2000; ++i) {
    dev_.access(a);
    dev_.access(b);
  }
  const auto flips = dev_.drain_flips();
  ASSERT_GE(flips.size(), 1u);
  bool found = false;
  for (const auto& f : flips) {
    if (f.coord.row == victim.row && f.coord.col == cell.col &&
        f.bit == cell.bit) {
      found = true;
      EXPECT_EQ(f.to_one, !cell.true_cell);
    }
  }
  EXPECT_TRUE(found);
  // The stored bit actually changed.
  const std::uint8_t now = dev_.read_byte(map_.encode(victim));
  EXPECT_EQ(((now >> cell.bit) & 1u) != 0, !cell.true_cell);
}

TEST_F(DramDeviceHammerTest, DischargedCellDoesNotFlip) {
  std::uint64_t flat = 0;
  WeakCell cell;
  ASSERT_TRUE(find_cell(flat, cell));
  const DramAddress victim = coord_of(flat, cell.col);
  // Store the discharged value.
  dev_.write_byte(map_.encode(victim),
                  cell.true_cell ? 0
                                 : static_cast<std::uint8_t>(1u << cell.bit));
  DramAddress above = victim;
  above.row -= 1;
  DramAddress below = victim;
  below.row += 1;
  for (std::uint32_t i = 0; i < 2 * cell.threshold + 2000; ++i) {
    dev_.access(map_.encode(above));
    dev_.access(map_.encode(below));
  }
  for (const auto& f : dev_.drain_flips()) {
    EXPECT_FALSE(f.coord.row == victim.row && f.coord.col == cell.col &&
                 f.bit == cell.bit);
  }
}

TEST_F(DramDeviceHammerTest, InsufficientHammeringNoFlip) {
  std::uint64_t flat = 0;
  WeakCell cell;
  ASSERT_TRUE(find_cell(flat, cell));
  const DramAddress victim = coord_of(flat, cell.col);
  dev_.write_byte(map_.encode(victim),
                  cell.true_cell ? static_cast<std::uint8_t>(1u << cell.bit)
                                 : 0);
  DramAddress above = victim;
  above.row -= 1;
  DramAddress below = victim;
  below.row += 1;
  for (std::uint32_t i = 0; i < cell.threshold / 8; ++i) {
    dev_.access(map_.encode(above));
    dev_.access(map_.encode(below));
  }
  // Our cell must not have flipped (other cells near the aggressors may).
  for (const auto& f : dev_.drain_flips()) {
    EXPECT_FALSE(f.coord.row == victim.row && f.coord.col == cell.col &&
                 f.bit == cell.bit);
  }
}

TEST_F(DramDeviceHammerTest, FlipReproducesAfterRewrite) {
  std::uint64_t flat = 0;
  WeakCell cell;
  ASSERT_TRUE(find_cell(flat, cell));
  const DramAddress victim = coord_of(flat, cell.col);
  DramAddress above = victim;
  above.row -= 1;
  DramAddress below = victim;
  below.row += 1;

  int reproduced = 0;
  for (int round = 0; round < 3; ++round) {
    dev_.write_byte(map_.encode(victim),
                    cell.true_cell ? static_cast<std::uint8_t>(1u << cell.bit)
                                   : 0);
    // Align to a fresh refresh window so the budget is not split.
    dev_.refresh_now();
    for (std::uint32_t i = 0; i < 2 * cell.threshold + 2000; ++i) {
      dev_.access(map_.encode(above));
      dev_.access(map_.encode(below));
    }
    for (const auto& f : dev_.drain_flips())
      if (f.coord.row == victim.row && f.coord.col == cell.col &&
          f.bit == cell.bit)
        ++reproduced;
  }
  // The paper's key observation: flips recur at the same location.
  EXPECT_EQ(reproduced, 3);
}

TEST(DramDeviceStats, ActivationCounting) {
  DramDevice dev(Geometry::with_capacity(64 * kMiB), quiet_params(), 1);
  dev.access(0);          // activation
  dev.access(0);          // hit, no activation
  dev.access(1 << 20);    // different row: activation
  EXPECT_EQ(dev.total_activations(), 2u);
}

}  // namespace
}  // namespace explframe::dram
