// Shard-equivalence differential suite: for EVERY builtin grid, runs
// split 1, 2 and 3 ways — with interleaved shard completion orders and
// shuffled merge orders — must merge to records equal to the unsharded
// run and to report bytes identical to the committed goldens under
// docs/results/sweeps/. This is the contract that makes `explsim sweep
// all --shard=I/N` + `--merge-from` a drop-in replacement for the
// single-process run CI verifies with `sweep all --check`.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "support/text.hpp"
#include "sweep/registry.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace explframe::sweep {
namespace {

const scenario::Registry& scenarios() {
  return scenario::Registry::builtin();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The committed golden for `name` (.md or .csv) — the unsharded bytes
/// `explsim sweep all` generated and CI pins.
std::string golden(const std::string& name, const std::string& ext) {
  const std::string path = std::string(EXPLFRAME_SOURCE_DIR) +
                           "/docs/results/sweeps/" + name + "." + ext;
  const auto text = read_file(path);
  EXPECT_TRUE(text.has_value()) << "missing golden " << path;
  return text.value_or("");
}

/// Run shard `index` of `count` for `spec`; returns its checkpoint path
/// (empty string on failure, already logged). A 1-way run deletes its
/// checkpoint on success, so that one is written back from the records
/// under the runner's header, and every shard count feeds
/// merge_checkpoints the same way.
std::string run_shard(const SweepSpec& spec, std::uint32_t index,
                      std::uint32_t count) {
  const std::string path =
      temp_path(spec.name + ".shard-" + std::to_string(index + 1) + "-of-" +
                std::to_string(count) + ".ckpt");
  std::filesystem::remove(path);
  SweepRunOptions options;
  options.checkpoint_path = path;
  options.shard_index = index;
  options.shard_count = count;
  std::string error;
  const auto result = run_sweep(spec, scenarios(), options, &error);
  EXPECT_TRUE(result.has_value())
      << spec.name << " shard " << index + 1 << "/" << count << ": " << error;
  if (!result) return "";
  EXPECT_EQ(result->shard_count, count);
  EXPECT_EQ(std::filesystem::exists(path), count > 1);
  if (count == 1) {
    std::ofstream out(path, std::ios::binary);
    out << "explsim-sweep-checkpoint v1 sweep=" << spec.name
        << " spec_hash=" << hex16(spec.spec_hash(scenarios())) << "\n";
    for (const PointRecord& record : result->records)
      out << record.serialize() << "\n";
  }
  return path;
}

TEST(ShardEquivalence, EveryBuiltinGridMatchesGoldensAtOneTwoThreeShards) {
  for (const SweepSpec& spec : Registry::builtin().all()) {
    SCOPED_TRACE(spec.name);
    const std::string golden_md = golden(spec.name, "md");
    const std::string golden_csv = golden(spec.name, "csv");

    std::vector<PointRecord> reference;  // From the 1-shard merge.
    for (const std::uint32_t count : {1u, 2u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(count));
      // Interleave completion: finish the LAST shard first, then the
      // rest — no shard may depend on a sibling having run before it.
      std::vector<std::string> paths(count);
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t index = (k + count - 1) % count;
        paths[index] = run_shard(spec, index, count);
        ASSERT_FALSE(paths[index].empty());
      }

      // Merge order must not matter either: feed the files reversed.
      const std::vector<std::string> reversed(paths.rbegin(), paths.rend());
      std::string error;
      const auto merged =
          merge_checkpoints(spec, scenarios(), reversed, &error);
      ASSERT_TRUE(merged.has_value()) << error;
      ASSERT_TRUE(merged->complete());

      if (count == 1) {
        reference = merged->records;
      } else {
        // Record-level equality: every point, every trial, every field.
        EXPECT_EQ(merged->records, reference);
      }
      // Byte-level equality against the committed unsharded goldens.
      EXPECT_EQ(sweep_markdown(*merged), golden_md);
      EXPECT_EQ(sweep_csv(*merged), golden_csv);

      for (const std::string& path : paths) std::filesystem::remove(path);
    }
  }
}

// The round-robin partition itself: disjoint, exhaustive, index-ordered.
TEST(ShardEquivalence, ShardsPartitionThePointsDisjointly) {
  const SweepSpec& spec = Registry::builtin().all().front();
  constexpr std::uint32_t kShards = 3;
  std::vector<std::size_t> owner_count;
  for (std::uint32_t index = 0; index < kShards; ++index) {
    const std::string path = run_shard(spec, index, kShards);
    ASSERT_FALSE(path.empty());
    std::string error;
    const auto records = load_checkpoint(path, spec.name,
                                         spec.spec_hash(scenarios()), &error);
    ASSERT_TRUE(records.has_value()) << error;
    for (const PointRecord& record : *records) {
      EXPECT_EQ(record.index % kShards, index);
      if (record.index >= owner_count.size())
        owner_count.resize(record.index + 1, 0);
      owner_count[record.index] += 1;
    }
    std::filesystem::remove(path);
  }
  std::string error;
  const auto points = spec.expand(scenarios(), &error);
  ASSERT_TRUE(points.has_value()) << error;
  ASSERT_EQ(owner_count.size(), points->size());
  for (const std::size_t count : owner_count) EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace explframe::sweep
