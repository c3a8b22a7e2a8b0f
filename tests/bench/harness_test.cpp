// The PERF benches' shared core (bench/harness.hpp): strict flag parsing,
// a JSON writer that keeps the committed BENCH_*.json layout, and the host
// facts every file opens with.
#include "../../bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace explframe::bench {
namespace {

Flags snapshot_defaults() { return {"BENCH_snapshot.json", {{"bar", 5.0}}}; }

std::string parse_error(const std::string& arg) {
  Flags flags = snapshot_defaults();
  return parse_flags({arg}, flags);
}

TEST(BenchFlags, RejectsMalformedAndUnknownFlags) {
  for (const char* arg :
       {"--bar=abc", "--bar=", "--bar=5x", "--bar=-1", "--bar=0", "--bar=nan",
        "--bar=inf", "--bar= 5", "--jsn=x", "--json=", "--bar", "bar=5",
        "--bar-capacity=8"})
    EXPECT_NE(parse_error(arg), "") << arg;
}

TEST(BenchFlags, AcceptsWellFormedFlags) {
  Flags flags = snapshot_defaults();
  EXPECT_EQ(parse_flags({"--bar=2.5", "--json=out.json"}, flags), "");
  EXPECT_EQ(flags.bars.at("bar"), 2.5);
  EXPECT_EQ(flags.json, "out.json");
}

TEST(BenchFlags, KeepsDefaultsWithoutFlags) {
  Flags flags{"BENCH_geometry.json",
              {{"bar-capacity", 8.0}, {"bar-memory", 2.0}}};
  EXPECT_EQ(parse_flags({}, flags), "");
  EXPECT_EQ(flags.json, "BENCH_geometry.json");
  EXPECT_EQ(flags.bars.at("bar-capacity"), 8.0);
  EXPECT_EQ(flags.bars.at("bar-memory"), 2.0);
  EXPECT_EQ(parse_flags({"--bar-memory=1e-3"}, flags), "");
  EXPECT_EQ(flags.bars.at("bar-capacity"), 8.0);
  EXPECT_EQ(flags.bars.at("bar-memory"), 1e-3);
}

TEST(BenchJson, MatchesTheSnapshotLayout) {
  const std::size_t points = 16;
  const std::uint32_t trials = 2;
  Json json;
  json.add("bench", "snapshot")
      .add("points", points)
      .add("trials", trials)
      .add("base_seconds", 0.166154)
      .add("forked_seconds", 1.4278e+08)
      .add("speedup", 11.28381234)
      .add("bar", 5.0)
      .add("pass", true);
  EXPECT_EQ(json.text(),
            "{\n"
            "  \"bench\": \"snapshot\",\n"
            "  \"points\": 16,\n"
            "  \"trials\": 2,\n"
            "  \"base_seconds\": 0.166154,\n"
            "  \"forked_seconds\": 1.4278e+08,\n"
            "  \"speedup\": 11.2838,\n"
            "  \"bar\": 5,\n"
            "  \"pass\": true\n"
            "}\n");
}

TEST(BenchJson, MatchesTheGeometryLayout) {
  std::vector<Json> curve(2);
  curve[0]
      .add("geometry", std::string("1 GiB"))
      .add("capacity_bytes", std::uint64_t{1073741824})
      .add("ranks", std::uint64_t{1})
      .add("channels", std::uint64_t{1})
      .add("seed_state_bytes", std::uint64_t{561784})
      .add("packed_state_bytes", std::uint64_t{67684});
  curve[1]
      .add("geometry", std::string("16 GiB 2ch"))
      .add("capacity_bytes", std::uint64_t{17179869184})
      .add("ranks", std::uint64_t{2})
      .add("channels", std::uint64_t{2})
      .add("seed_state_bytes", std::uint64_t{0})
      .add("packed_state_bytes", std::uint64_t{1071848});
  Json json;
  json.add("bench", "geometry")
      .add("cells_per_mib", 4.0)
      .add("state_budget_bytes", std::uint64_t{67108864})
      .add("curve", curve)
      .add("packed_bytes_per_gib", 66990.5)
      .add("memory_ratio", 0.119177)
      .add("pass", false);
  EXPECT_EQ(json.text(),
            "{\n"
            "  \"bench\": \"geometry\",\n"
            "  \"cells_per_mib\": 4,\n"
            "  \"state_budget_bytes\": 67108864,\n"
            "  \"curve\": [\n"
            "    {\"geometry\": \"1 GiB\", \"capacity_bytes\": 1073741824, "
            "\"ranks\": 1, \"channels\": 1, \"seed_state_bytes\": 561784, "
            "\"packed_state_bytes\": 67684},\n"
            "    {\"geometry\": \"16 GiB 2ch\", \"capacity_bytes\": "
            "17179869184, \"ranks\": 2, \"channels\": 2, "
            "\"seed_state_bytes\": 0, \"packed_state_bytes\": 1071848}\n"
            "  ],\n"
            "  \"packed_bytes_per_gib\": 66990.5,\n"
            "  \"memory_ratio\": 0.119177,\n"
            "  \"pass\": false\n"
            "}\n");
}

TEST(BenchJson, OpensWithTheBenchNameAndHostFacts) {
  Json json = bench_json("shard");
  json.add("points", 10);
  EXPECT_EQ(json.text(),
            "{\n"
            "  \"bench\": \"shard\",\n"
            "  \"host_cores\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ",\n"
                "  \"build_type\": \"" EXPLFRAME_BUILD_TYPE "\",\n"
                "  \"compiler\": \"" EXPLFRAME_COMPILER "\",\n"
                "  \"points\": 10\n"
                "}\n");
}

TEST(BenchTiming, SpreadIsMinMedianMax) {
  const Spread odd = spread({0.3, -0.1, 0.2, 0.9, 0.0});
  EXPECT_EQ(odd.min, -0.1);
  EXPECT_EQ(odd.median, 0.2);
  EXPECT_EQ(odd.max, 0.9);
  const Spread even = spread({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.min, 1.0);
  EXPECT_EQ(even.median, 2.5);
  EXPECT_EQ(even.max, 4.0);
  const Spread none = spread({});
  EXPECT_EQ(none.median, 0.0);
}

TEST(BenchTiming, InterleavedPairsWarmUpThenAlternate) {
  std::string order;
  const auto pairs = interleaved_pairs([&] { order += 'a'; },
                                       [&] { order += 'b'; }, 5);
  EXPECT_EQ(order, "aababababab");
  ASSERT_EQ(pairs.size(), 5u);
  for (const auto& [a, b] : pairs) {
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, 0.0);
  }
}

}  // namespace
}  // namespace explframe::bench
