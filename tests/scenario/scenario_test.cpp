// scenario::Scenario / Registry — the declarative experiment layer.
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "support/units.hpp"

namespace explframe::scenario {
namespace {

TEST(Registry, HasTheHandbookScenarios) {
  const Registry& reg = Registry::builtin();
  EXPECT_GE(reg.all().size(), 10u);
  EXPECT_NE(reg.find("quickstart"), nullptr);
  EXPECT_NE(reg.find("aes-single-flip"), nullptr);
  EXPECT_NE(reg.find("present-single-flip"), nullptr);
  EXPECT_NE(reg.find("defence-trr-ecc"), nullptr);
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
}

TEST(Registry, NamesAreUniqueValidKeysAndTitlesPresent) {
  for (const Scenario& s : Registry::builtin().all()) {
    EXPECT_TRUE(KvFile::valid_key(s.name)) << s.name;
    EXPECT_FALSE(s.title.empty()) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_EQ(Registry::builtin().find(s.name), &s) << s.name;
    EXPECT_GE(s.trials, 1u) << s.name;
  }
}

TEST(RegistryDeathTest, DuplicateNamesAreRejected) {
  Registry reg;
  reg.add(builtin_scenario("quickstart"));
  EXPECT_DEATH(reg.add(builtin_scenario("quickstart")),
               "duplicate scenario name");
}

// The acceptance-criteria invariant: every registered scenario survives
// write -> parse unchanged, so `.scn` files are a faithful exchange format.
TEST(Scenario, EveryRegisteredScenarioRoundTrips) {
  for (const Scenario& s : Registry::builtin().all()) {
    std::string error;
    const auto reparsed = Scenario::from_scn(s.to_scn(), &error);
    ASSERT_TRUE(reparsed.has_value()) << s.name << ": " << error;
    EXPECT_EQ(*reparsed, s) << s.name;
    // And the canonical text itself is a fixed point.
    EXPECT_EQ(reparsed->to_scn(), s.to_scn()) << s.name;
  }
}

TEST(Scenario, MinimalScnUsesDefaults) {
  const auto s =
      Scenario::from_scn("name = mini\ntitle = Minimal scenario\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->cipher, crypto::CipherKind::kAes128);
  EXPECT_EQ(s->defence, Defence::kNone);
  EXPECT_EQ(s->weak_cells, WeakCellProfile::kVulnerable);
  EXPECT_EQ(s->trials, 8u);
  EXPECT_EQ(s->ciphertext_budget, 8000u);
}

TEST(Scenario, RejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(Scenario::from_scn(
                   "name = x\ntitle = t\nciphertext_bugdet = 9\n", &error)
                   .has_value());
  EXPECT_EQ(error, "unknown key 'ciphertext_bugdet'");
}

TEST(Scenario, RejectsMalformedValues) {
  std::string error;
  EXPECT_FALSE(
      Scenario::from_scn("name = x\ntitle = t\ntrials = many\n", &error)
          .has_value());
  EXPECT_NE(error.find("key 'trials'"), std::string::npos);

  EXPECT_FALSE(
      Scenario::from_scn("name = x\ntitle = t\ncipher = des\n", &error)
          .has_value());
  EXPECT_NE(error.find("unknown cipher 'des'"), std::string::npos);

  EXPECT_FALSE(
      Scenario::from_scn("name = x\ntitle = t\ndefence = rowclone\n", &error)
          .has_value());
  EXPECT_NE(error.find("unknown defence"), std::string::npos);
}

TEST(Scenario, RejectsDuplicateKeys) {
  std::string error;
  EXPECT_FALSE(
      Scenario::from_scn("name = x\ntitle = t\nseed = 1\nseed = 2\n", &error)
          .has_value());
  EXPECT_NE(error.find("duplicate key 'seed'"), std::string::npos);
}

TEST(Scenario, RejectsSemanticImpossibilities) {
  std::string error;
  // DFA needs transient pairs; no campaign analysis is named after it.
  EXPECT_FALSE(
      Scenario::from_scn("name = x\ntitle = t\nanalysis = dfa\n", &error)
          .has_value());
  EXPECT_NE(error.find("dfa"), std::string::npos);

  EXPECT_FALSE(Scenario::from_scn("name = x\ntitle = t\ncipher = present80\n"
                                  "analysis = pfa-max-likelihood\n",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("AES-only"), std::string::npos);

  EXPECT_FALSE(Scenario::from_scn("name = x\ntitle = t\ntrials = 0\n", &error)
                   .has_value());
  EXPECT_FALSE(Scenario::from_scn(
                   "name = x\ntitle = t\nmemory_mib = 4\nbuffer_mib = 4\n",
                   &error)
                   .has_value());
  EXPECT_FALSE(Scenario::from_scn("name = not a key\ntitle = t\n", &error)
                   .has_value());
}

TEST(Scenario, MemoryMustBeABuildableGeometry) {
  // A power of two of at least 4 MiB whose byte count fits in 64 bits;
  // anything else is a parse error, not an abort mid-run.
  const std::pair<const char*, bool> cases[] = {
      {"2", false}, {"3", false}, {"5", false}, {"17592186044416", false},
      {"4", true},  {"16", true}, {"8796093022208", true}};
  for (const auto& [mib, ok] : cases) {
    std::string error;
    const auto s = Scenario::from_scn(
        std::string("name = x\ntitle = t\nbuffer_mib = 1\nmemory_mib = ") +
            mib + "\n",
        &error);
    EXPECT_EQ(s.has_value(), ok) << mib << ": " << error;
    if (!ok) {
      EXPECT_NE(error.find("key 'memory_mib'"), std::string::npos) << mib;
    }
  }
}

TEST(Scenario, BufferMustLeaveHalfOfMemory) {
  // Buffers over half of memory starve the victim and the kernel and
  // abort mid-run; they are parse errors instead.
  struct Case {
    const char* memory;
    const char* buffer;
    bool ok;
  };
  const Case cases[] = {{"4", "3", false},
                        {"64", "33", false},
                        {"4", "2", true},
                        {"64", "32", true}};
  for (const Case& c : cases) {
    std::string error;
    const auto s = Scenario::from_scn(std::string("name = x\ntitle = t\n") +
                                          "memory_mib = " + c.memory +
                                          "\nbuffer_mib = " + c.buffer + "\n",
                                      &error);
    EXPECT_EQ(s.has_value(), c.ok) << c.memory << '/' << c.buffer << ": "
                                   << error;
    if (!c.ok) {
      EXPECT_NE(error.find("key 'buffer_mib'"), std::string::npos)
          << c.memory << '/' << c.buffer;
    }
  }
}

TEST(Scenario, RunnerConfigLowersEveryKnob) {
  const auto s = Scenario::from_scn(
      "name = lower\n"
      "title = t\n"
      "cipher = present80\n"
      "defence = trr+ecc\n"
      "trr_threshold = 7000\n"
      "weak_cells = dense\n"
      "memory_mib = 128\n"
      "trials = 3\n"
      "threads = 4\n"
      "seed = 77\n"
      "buffer_mib = 8\n"
      "hammer_iterations = 50000\n"
      "max_rows = 96\n"
      "both_polarities = false\n"
      "ciphertext_budget = 1234\n"
      "noise_ops = 5\n"
      "attacker_sleeps = true\n");
  ASSERT_TRUE(s.has_value());
  const attack::RunnerConfig cfg = s->runner_config();
  EXPECT_EQ(cfg.trials, 3u);
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.system.memory_bytes, 128 * kMiB);
  EXPECT_TRUE(cfg.system.dram.trr.enabled);
  EXPECT_EQ(cfg.system.dram.trr.threshold, 7000u);
  EXPECT_TRUE(cfg.system.dram.ecc.enabled);
  EXPECT_DOUBLE_EQ(cfg.system.dram.weak_cells.cells_per_mib, 512.0);
  EXPECT_EQ(cfg.campaign.cipher, crypto::CipherKind::kPresent80);
  EXPECT_EQ(cfg.campaign.templating.buffer_bytes, 8 * kMiB);
  EXPECT_EQ(cfg.campaign.templating.hammer_iterations, 50'000u);
  EXPECT_EQ(cfg.campaign.templating.max_rows, 96u);
  EXPECT_FALSE(cfg.campaign.templating.both_polarities);
  EXPECT_EQ(cfg.campaign.ciphertext_budget, 1234u);
  EXPECT_EQ(cfg.campaign.noise_ops, 5u);
  EXPECT_TRUE(cfg.campaign.attacker_sleeps);
}

TEST(Scenario, DefenceProfilesLowerToDeviceFlags) {
  const auto lower = [](const char* defence) {
    Scenario s = builtin_scenario("quickstart");
    s.defence = *defence_from_string(defence);
    const attack::RunnerConfig cfg = s.runner_config();
    return std::make_pair(cfg.system.dram.trr.enabled,
                          cfg.system.dram.ecc.enabled);
  };
  EXPECT_EQ(lower("none"), std::make_pair(false, false));
  EXPECT_EQ(lower("trr"), std::make_pair(true, false));
  EXPECT_EQ(lower("ecc"), std::make_pair(false, true));
  EXPECT_EQ(lower("trr+ecc"), std::make_pair(true, true));
}

TEST(Scenario, EnumNamesRoundTrip) {
  for (const auto d :
       {Defence::kNone, Defence::kTrr, Defence::kEcc, Defence::kTrrEcc})
    EXPECT_EQ(defence_from_string(to_string(d)), d);
  for (const auto p :
       {WeakCellProfile::kQuiet, WeakCellProfile::kRealistic,
        WeakCellProfile::kVulnerable, WeakCellProfile::kDense})
    EXPECT_EQ(weak_cell_profile_from_string(to_string(p)), p);
}

}  // namespace
}  // namespace explframe::scenario
