#include "support/stats.hpp"

#include <gtest/gtest.h>

namespace explframe {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(Samples, EmptySetIsDefinedZero) {
  // An empty sample set (e.g. ciphertexts_used with zero successful trials)
  // must report zeros everywhere, not crash or return garbage.
  const Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(Samples, AddAfterPercentileInvalidatesCache) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 2.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(WilsonInterval, ContainsPointEstimate) {
  const auto ci = wilson_interval(30, 100);
  EXPECT_NEAR(ci.p, 0.3, 1e-12);
  EXPECT_LT(ci.lo, 0.3);
  EXPECT_GT(ci.hi, 0.3);
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
}

TEST(WilsonInterval, EdgeCases) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_DOUBLE_EQ(zero.p, 0.0);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);

  const auto all = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(all.p, 1.0);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);

  const auto none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(WilsonInterval, NarrowsWithMoreTrials) {
  const auto small = wilson_interval(5, 10);
  const auto large = wilson_interval(500, 1000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

}  // namespace
}  // namespace explframe
