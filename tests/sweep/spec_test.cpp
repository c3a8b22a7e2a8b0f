// sweep::SweepSpec — .sweep parsing, axis expansion and grid determinism.
#include "sweep/spec.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "sweep/registry.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

/// A small valid sweep used as the mutation baseline.
constexpr const char* kValidSweep =
    "name = mini-grid\n"
    "title = Minimal grid\n"
    "base = quickstart\n"
    "base.trials = 2\n"
    "axis.defence = none,trr\n"
    "axis.hammer_iterations = 1000:4000:x2\n";

TEST(AxisValues, ExpandsCommaLists) {
  const auto values = expand_axis_values("none, trr ,ecc,trr+ecc");
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(*values,
            (std::vector<std::string>{"none", "trr", "ecc", "trr+ecc"}));
}

TEST(AxisValues, ExpandsGeometricRangesInclusive) {
  const auto values = expand_axis_values("1000:64000:x2");
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(*values, (std::vector<std::string>{"1000", "2000", "4000",
                                               "8000", "16000", "32000",
                                               "64000"}));
  // hi not landed on exactly: stop below it.
  EXPECT_EQ(*expand_axis_values("10:50:x3"),
            (std::vector<std::string>{"10", "30"}));
}

TEST(AxisValues, ExpandsLinearRangesInclusive) {
  EXPECT_EQ(*expand_axis_values("16:64:+16"),
            (std::vector<std::string>{"16", "32", "48", "64"}));
  EXPECT_EQ(*expand_axis_values("5:6:+10"), (std::vector<std::string>{"5"}));
  EXPECT_EQ(*expand_axis_values("0:10:+5"),
            (std::vector<std::string>{"0", "5", "10"}));
}

TEST(AxisValues, RejectsMalformedAndEmptyRanges) {
  std::string error;
  EXPECT_FALSE(expand_axis_values("64:16:+8", &error).has_value());
  EXPECT_NE(error.find("empty range"), std::string::npos);
  EXPECT_FALSE(expand_axis_values("1:10:x1", &error).has_value());
  // lo=0 never advances under a geometric factor: rejected up front.
  EXPECT_FALSE(expand_axis_values("0:64000:x2", &error).has_value());
  EXPECT_NE(error.find("lo >= 1"), std::string::npos);
  EXPECT_FALSE(expand_axis_values("1:10:+0", &error).has_value());
  EXPECT_FALSE(expand_axis_values("1:10:*2", &error).has_value());
  EXPECT_FALSE(expand_axis_values("1:10", &error).has_value());
  EXPECT_FALSE(expand_axis_values("1:2:3:x4", &error).has_value());
  EXPECT_FALSE(expand_axis_values("a:10:x2", &error).has_value());
  EXPECT_FALSE(expand_axis_values("1:1000000000:+1", &error).has_value())
      << "axis value cap";
}

TEST(AxisValues, RejectsBadListEntries) {
  std::string error;
  EXPECT_FALSE(expand_axis_values("", &error).has_value());
  EXPECT_FALSE(expand_axis_values("a,,b", &error).has_value());
  EXPECT_FALSE(expand_axis_values("a,b,a", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_FALSE(expand_axis_values("a b,c", &error).has_value());
}

TEST(SweepSpec, ParsesAndRoundTrips) {
  std::string error;
  const auto spec = SweepSpec::from_sweep(kValidSweep, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "mini-grid");
  EXPECT_EQ(spec->base, "quickstart");
  EXPECT_EQ(spec->seed_mode, SeedMode::kDerived);
  ASSERT_EQ(spec->axes.size(), 2u);
  EXPECT_EQ(spec->axes[0].key, "defence");
  EXPECT_EQ(spec->axes[1].values,
            (std::vector<std::string>{"1000", "2000", "4000"}));
  EXPECT_EQ(spec->point_count(), 6u);

  // Canonical serialization is a fixed point (ranges normalize to lists).
  const auto reparsed = SweepSpec::from_sweep(spec->to_sweep(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, *spec);
  EXPECT_EQ(reparsed->to_sweep(), spec->to_sweep());
}

TEST(SweepSpec, RejectsMalformedSpecs) {
  std::string error;
  // Missing identity / base / axes.
  EXPECT_FALSE(SweepSpec::from_sweep("title = t\nbase = quickstart\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\nbase = quickstart\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_FALSE(
      SweepSpec::from_sweep("name = x\ntitle = t\nbase = quickstart\n",
                            &error)
          .has_value());
  EXPECT_NE(error.find("at least one axis"), std::string::npos);
  // Unknown top-level key.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\nbogus = 1\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key 'bogus'"), std::string::npos);
  // Unknown seed mode.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\nseed_mode = fixed\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  // Reserved keys can be neither swept nor overridden.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\naxis.seed = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\nbase.name = y\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  // Swept and overridden at once.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\nbase.trials = 4\n"
                                     "axis.trials = 1,2\n",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("both overridden"), std::string::npos);
  // A line that is not a key=value pair is a KvFile parse error.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\n"
                                     "axis.trials = 1,2\naxis.seed\n",
                                     &error)
                   .has_value());
  // More than 3 axes.
  EXPECT_FALSE(SweepSpec::from_sweep(
                   "name = x\ntitle = t\nbase = quickstart\n"
                   "axis.trials = 1,2\naxis.threads = 1,2\n"
                   "axis.noise_ops = 0,1\naxis.memory_mib = 64,128\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("at most 3 axes"), std::string::npos);
  // Duplicate axis keys are duplicate KvFile keys.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\n"
                                     "axis.trials = 1,2\naxis.trials = 3,4\n",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  // Malformed axis value syntax is attributed to its key.
  EXPECT_FALSE(SweepSpec::from_sweep("name = x\ntitle = t\n"
                                     "base = quickstart\n"
                                     "axis.trials = 4:1:x2\n",
                                     &error)
                   .has_value());
  EXPECT_NE(error.find("axis.trials"), std::string::npos);
}

TEST(SweepSpec, ExpandRejectsUnknownBaseAndAxisKeys) {
  std::string error;
  const auto unknown_base = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = no-such-scenario\naxis.trials = 1,2\n");
  ASSERT_TRUE(unknown_base.has_value());
  EXPECT_FALSE(unknown_base->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("no registered scenario"), std::string::npos);

  // An unknown axis key parses (syntax is fine) but cannot expand.
  const auto unknown_axis = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = quickstart\naxis.hammer_budget = 1,2\n");
  ASSERT_TRUE(unknown_axis.has_value());
  EXPECT_FALSE(unknown_axis->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("hammer_budget"), std::string::npos);

  // An unknown override key likewise.
  const auto unknown_override = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = quickstart\nbase.bogus = 1\n"
      "axis.trials = 1,2\n");
  ASSERT_TRUE(unknown_override.has_value());
  EXPECT_FALSE(unknown_override->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("base.bogus"), std::string::npos);

  // A well-formed axis with a value the scenario schema rejects.
  const auto bad_value = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = quickstart\naxis.defence = none,tsr\n");
  ASSERT_TRUE(bad_value.has_value());
  EXPECT_FALSE(bad_value->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("tsr"), std::string::npos);

  // A memory size the DRAM geometry cannot build fails at expansion too.
  const auto bad_memory = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = quickstart\naxis.memory_mib = 64,48\n");
  ASSERT_TRUE(bad_memory.has_value());
  EXPECT_FALSE(bad_memory->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("memory_mib"), std::string::npos);

  // So does a templating buffer over half of memory.
  const auto bad_buffer = SweepSpec::from_sweep(
      "name = x\ntitle = t\nbase = quickstart\naxis.buffer_mib = 4,33\n");
  ASSERT_TRUE(bad_buffer.has_value());
  EXPECT_FALSE(bad_buffer->expand(scenarios(), &error).has_value());
  EXPECT_NE(error.find("buffer_mib"), std::string::npos);
}

TEST(SweepSpec, ExpansionIsDeterministicRowMajor) {
  const auto spec = SweepSpec::from_sweep(kValidSweep);
  ASSERT_TRUE(spec.has_value());
  std::string error;
  const auto points = spec->expand(scenarios(), &error);
  ASSERT_TRUE(points.has_value()) << error;
  ASSERT_EQ(points->size(), 6u);

  // Row-major, last axis fastest; ids and names are stable.
  EXPECT_EQ((*points)[0].id, "defence=none,hammer_iterations=1000");
  EXPECT_EQ((*points)[1].id, "defence=none,hammer_iterations=2000");
  EXPECT_EQ((*points)[3].id, "defence=trr,hammer_iterations=1000");
  EXPECT_EQ((*points)[5].id, "defence=trr,hammer_iterations=4000");
  EXPECT_EQ((*points)[5].scenario.name, "mini-grid.p05");
  EXPECT_EQ((*points)[5].scenario.title, (*points)[5].id);

  // The axes landed in the point scenarios; the override applied first.
  EXPECT_EQ((*points)[3].scenario.defence, scenario::Defence::kTrr);
  EXPECT_EQ((*points)[1].scenario.hammer_iterations, 2000u);
  EXPECT_EQ((*points)[0].scenario.trials, 2u);

  // Expansion twice gives identical grids (pure function of the spec).
  const auto again = spec->expand(scenarios(), &error);
  ASSERT_TRUE(again.has_value());
  for (std::size_t i = 0; i < points->size(); ++i) {
    EXPECT_EQ((*again)[i].id, (*points)[i].id);
    EXPECT_EQ((*again)[i].scenario, (*points)[i].scenario);
  }
}

TEST(SweepSpec, SeedModesShareOrDerivePointSeeds) {
  const auto base_seed = scenarios().find("quickstart")->seed;
  const auto derived = SweepSpec::from_sweep(kValidSweep);
  ASSERT_TRUE(derived.has_value());
  const auto derived_points = derived->expand(scenarios());
  ASSERT_TRUE(derived_points.has_value());
  for (std::size_t i = 0; i < derived_points->size(); ++i) {
    EXPECT_EQ((*derived_points)[i].scenario.seed,
              derive_point_seed(base_seed, i));
    for (std::size_t j = i + 1; j < derived_points->size(); ++j)
      EXPECT_NE((*derived_points)[i].scenario.seed,
                (*derived_points)[j].scenario.seed);
  }

  const auto shared = SweepSpec::from_sweep(
      std::string(kValidSweep) + "seed_mode = shared\n");
  ASSERT_TRUE(shared.has_value());
  const auto shared_points = shared->expand(scenarios());
  ASSERT_TRUE(shared_points.has_value());
  for (const SweepPoint& point : *shared_points)
    EXPECT_EQ(point.scenario.seed, base_seed);
}

TEST(SweepSpec, SpecHashCoversSpecAndBaseScenario) {
  const auto a = SweepSpec::from_sweep(kValidSweep);
  ASSERT_TRUE(a.has_value());
  const std::uint64_t hash = a->spec_hash(scenarios());
  EXPECT_EQ(hash, a->spec_hash(scenarios()));

  // Any spec edit — including a seed override — moves the hash.
  auto b = *a;
  b.base_overrides.emplace_back("ciphertext_budget", "9000");
  EXPECT_NE(b.spec_hash(scenarios()), hash);
  auto c = *a;
  c.seed_mode = SeedMode::kShared;
  EXPECT_NE(c.spec_hash(scenarios()), hash);
  auto d = *a;
  d.axes[0].values.push_back("ecc");
  EXPECT_NE(d.spec_hash(scenarios()), hash);
}

TEST(SweepRegistry, BuiltinsExpandRoundTripAndAreUnique) {
  const Registry& reg = Registry::builtin();
  EXPECT_GE(reg.all().size(), 4u);
  EXPECT_NE(reg.find("aes-budget-curve"), nullptr);
  EXPECT_NE(reg.find("present-budget-curve"), nullptr);
  EXPECT_NE(reg.find("defence-grid"), nullptr);
  EXPECT_NE(reg.find("templating-frontier"), nullptr);
  EXPECT_EQ(reg.find("no-such-sweep"), nullptr);

  for (const SweepSpec& spec : reg.all()) {
    EXPECT_EQ(reg.find(spec.name), &spec);
    EXPECT_FALSE(spec.title.empty()) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    std::string error;
    const auto points = spec.expand(scenarios(), &error);
    ASSERT_TRUE(points.has_value()) << spec.name << ": " << error;
    EXPECT_GE(points->size(), 4u) << spec.name;
    const auto reparsed = SweepSpec::from_sweep(spec.to_sweep(), &error);
    ASSERT_TRUE(reparsed.has_value()) << spec.name << ": " << error;
    EXPECT_EQ(*reparsed, spec) << spec.name;
  }
}

TEST(SweepRegistryDeathTest, BuiltinSweepLookupChecks) {
  EXPECT_EQ(builtin_sweep("defence-grid").base, "defence-none");
  EXPECT_DEATH(builtin_sweep("nope"), "no such built-in sweep");
  Registry reg;
  reg.add(builtin_sweep("defence-grid"));
  EXPECT_DEATH(reg.add(builtin_sweep("defence-grid")), "duplicate sweep name");
}

}  // namespace
}  // namespace explframe::sweep
