#include "dram/hammer.hpp"

#include <gtest/gtest.h>

namespace explframe::dram {
namespace {

DeviceParams no_flip_params() {
  DeviceParams p;
  p.weak_cells.cells_per_mib = 0.0;
  return p;
}

TEST(HammerEngine, HammerCountsIterationsAndTime) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  const DeviceParams p = no_flip_params();
  DramDevice dev(g, p, 1);
  HammerEngine engine(dev);
  AddressMapping map(g, p.mapping);
  const PhysAddr pair[2] = {map.encode({0, 0, 0, 10, 0}),
                            map.encode({0, 0, 0, 12, 0})};
  const auto result = engine.hammer(pair, 1000);
  EXPECT_EQ(result.iterations, 1000u);
  // Same-bank alternation: every access is a conflict.
  EXPECT_EQ(result.elapsed, 2000 * p.timings.row_conflict_ns);
  EXPECT_TRUE(result.flips.empty());
}

TEST(HammerEngine, EmptyAggressorListIsNoop) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, no_flip_params(), 1);
  HammerEngine engine(dev);
  const auto result = engine.hammer({}, 100);
  EXPECT_TRUE(result.valid);  // a no-op, not a failure
  EXPECT_EQ(result.iterations, 0u);
}

TEST(HammerEngine, SingleSidedRefusesWhenNoPartnerRow) {
  Geometry g;
  g.banks = 2;
  g.rows_per_bank = 8;  // no row has a same-bank partner 8 rows away
  g.row_bytes = 4 * kKiB;
  const DeviceParams p = no_flip_params();
  DramDevice dev(g, p, 1);
  HammerEngine engine(dev);
  AddressMapping map(g, p.mapping);
  const auto result =
      engine.hammer_single_sided(map.encode({0, 0, 0, 3, 0}), 10);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(HammerEngine, DoubleSidedRefusesEdgeRows) {
  const auto g = Geometry::with_capacity(64 * kMiB);
  const DeviceParams p = no_flip_params();
  DramDevice dev(g, p, 1);
  HammerEngine engine(dev);
  AddressMapping map(g, p.mapping);
  // An edge row has only one neighbour: the result must be flagged invalid,
  // not look like a successful hammer that found no flips.
  const PhysAddr top_row = map.encode({0, 0, 0, 0, 0});
  const HammerResult top = engine.hammer_double_sided(top_row, 10);
  EXPECT_FALSE(top.valid);
  EXPECT_EQ(top.iterations, 0u);
  const PhysAddr bottom_row =
      map.encode({0, 0, 0, g.rows_per_bank - 1, 0});
  EXPECT_FALSE(engine.hammer_double_sided(bottom_row, 10).valid);
  const PhysAddr mid_row = map.encode({0, 0, 0, 100, 0});
  const HammerResult mid = engine.hammer_double_sided(mid_row, 10);
  EXPECT_TRUE(mid.valid);
  EXPECT_EQ(mid.iterations, 10u);
}

TEST(HammerEngine, DoubleSidedFlipsFasterThanSingleSided) {
  // For a fixed hammer budget, double-sided hammering must flip at least as
  // many cells *in the targeted rows* as single-sided (both neighbours
  // contribute disturbance), and typically strictly more.
  const auto g = Geometry::with_capacity(64 * kMiB);
  DeviceParams p;
  p.weak_cells.cells_per_mib = 512.0;  // dense population for statistics
  p.weak_cells.threshold_log_mean = 10.3;  // weaker cells
  p.data_pattern_sensitivity = false;

  auto targeted_flips = [&](bool double_sided, std::uint64_t seed) {
    DramDevice dev(g, p, seed);
    dev.fill(0, 0xFF, g.total_bytes() / 8);  // charge true cells
    HammerEngine engine(dev);
    AddressMapping map(g, p.mapping);
    std::uint64_t count = 0;
    for (std::uint32_t row = 2; row < 60; row += 5) {
      const PhysAddr target = map.encode({0, 0, 0, row, 0});
      HammerResult result;
      if (double_sided) {
        result = engine.hammer_double_sided(target, 80'000);
      } else {
        PhysAddr agg = 0;
        if (!map.neighbor_row_addr(target, -1, 0, agg)) continue;
        result = engine.hammer_single_sided(agg, 80'000);
      }
      for (const auto& f : result.flips)
        if (f.coord.row == row && f.coord.bank == 0) ++count;
    }
    return count;
  };

  std::uint64_t double_flips = 0, single_flips = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    double_flips += targeted_flips(true, seed);
    single_flips += targeted_flips(false, seed);
  }
  EXPECT_GT(double_flips, 0u);
  EXPECT_GE(double_flips, single_flips);
}

}  // namespace
}  // namespace explframe::dram
