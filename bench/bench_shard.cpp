// PERF — shard-scaling on the templating-frontier grid.
//
// Sharding exists to buy wall-clock: N processes each run the round-robin
// subset i % N of a grid's points and a merge reassembles byte-identical
// reports. This bench proves the partition actually scales by running the
// SAME three shard workloads two ways:
//
//   sequential — shard 1/3, 2/3, 3/3 back to back, one worker thread each
//                (what a single machine without sharding would pay);
//   sharded    — the three shards concurrently, one worker thread each
//                (what three cooperating processes pay, modelled in-process
//                so the comparison excludes process startup).
//
// Both sides include the full checkpoint tax (every point fsynced), and
// the sharded run's checkpoints are merged and verified complete at the
// end — a speedup that broke the output would be no speedup at all.
// Writes BENCH_shard.json (override with --json=PATH) and exits non-zero
// if the 3-way speedup falls under the bar (default 2.0x, override with
// --bar=FACTOR) — the CI smoke check that shard scaling stays real. The
// bar is enforced only when the host has at least 3 cores: concurrency
// cannot beat sequential on fewer, and a scaling bench that fails on a
// laptop's power-saver profile would just get deleted.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "scenario/registry.hpp"
#include "support/check.hpp"
#include "support/table.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

using namespace explframe;

namespace {

constexpr std::uint32_t kShards = 3;

std::string shard_checkpoint(std::uint32_t index) {
  return (std::filesystem::temp_directory_path() /
          ("bench_shard." + std::to_string(index) + ".ckpt"))
      .string();
}

/// Run one shard with a single worker thread, fresh checkpoint.
void run_one_shard(const sweep::SweepSpec& spec, std::uint32_t index) {
  sweep::SweepRunOptions options;
  options.threads = 1;
  options.checkpoint_path = shard_checkpoint(index);
  options.shard_index = index;
  options.shard_count = kShards;
  const auto result =
      sweep::run_sweep(spec, scenario::Registry::builtin(), options);
  EXPLFRAME_CHECK_MSG(result.has_value(), "bench shard run must succeed");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags_or_exit(
      argc, argv, {"BENCH_shard.json", {{"bar", 2.0}}});
  const double bar = flags.bars.at("bar");

  print_banner(std::cout, "PERF: shard scaling (templating-frontier)");

  const sweep::SweepSpec& spec = sweep::builtin_sweep("templating-frontier");
  std::string error;
  const auto points = spec.expand(scenario::Registry::builtin(), &error);
  EXPLFRAME_CHECK_MSG(points.has_value(), "builtin sweep must expand");

  const auto [sequential, sharded] = bench::best_of(
      [&] {
        for (std::uint32_t index = 0; index < kShards; ++index)
          run_one_shard(spec, index);
      },
      [&] {
        std::vector<std::thread> shards;
        for (std::uint32_t index = 0; index < kShards; ++index)
          shards.emplace_back([&spec, index] { run_one_shard(spec, index); });
        for (std::thread& shard : shards) shard.join();
      });
  const double speedup = sharded > 0.0 ? sequential / sharded : 0.0;

  // The speedup must not have cost correctness: the last sharded run's
  // checkpoints merge into the complete grid.
  std::vector<std::string> checkpoints;
  for (std::uint32_t index = 0; index < kShards; ++index)
    checkpoints.push_back(shard_checkpoint(index));
  const auto merged = sweep::merge_checkpoints(
      spec, scenario::Registry::builtin(), checkpoints, &error);
  EXPLFRAME_CHECK_MSG(merged.has_value(), "shard checkpoints must merge");
  EXPLFRAME_CHECK_MSG(merged->complete(), "merged grid must be complete");
  for (const std::string& path : checkpoints)
    std::filesystem::remove(path);

  Table t({"mode", "seconds", "speedup"});
  t.row("sequential shards", sequential, "-");
  t.row("concurrent shards", sharded,
        std::to_string(speedup).substr(0, 4) + "x");
  t.print(std::cout);
  std::cout << spec.name << ": " << points->size() << " points, "
            << kShards << " shards, 1 worker thread per shard\n";

  // The acceptance bar: three concurrent shards must buy at least `bar`x
  // (default 2x) over running the same shards back to back.
  const unsigned cores = std::thread::hardware_concurrency();
  bench::Verdict verdict;
  if (cores < kShards)
    std::cout << "SKIP: " << cores << " core(s) < " << kShards
              << " shards — speedup bar not enforced on this host\n";
  else
    verdict.require(speedup >= bar, "shard speedup ", speedup, "x is under ",
                    bar, "x");
  bench::Json json = bench::bench_json("shard");
  json.add("sweep", spec.name)
      .add("points", points->size())
      .add("shards", kShards)
      .add("sequential_seconds", sequential)
      .add("sharded_seconds", sharded)
      .add("speedup", speedup);
  return bench::finish(json, flags.json, verdict);
}
