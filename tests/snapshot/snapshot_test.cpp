// The snap::Restorable contract on the full machine (kernel::System):
// restore() must be EXACT — memory bytes, translations, allocator
// accounting, task table and the simulated clock all rewind to the
// captured instant, every public counter included — and cheap snapshots
// must stay valid across repeated restores (layered CoW, no deep copy
// invalidation). Timeline layers the
// same contract into a rewindable stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kernel/system.hpp"
#include "snapshot/timeline.hpp"
#include "support/units.hpp"

namespace explframe {
namespace {

kernel::SystemConfig small_config(std::uint64_t seed) {
  kernel::SystemConfig cfg;
  cfg.memory_bytes = 16 * kMiB;
  cfg.num_cpus = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(salt + i * 13);
  return out;
}

TEST(Snapshot, RestoreRewindsMemoryClockAndAllocator) {
  kernel::System sys(small_config(11));
  kernel::Task& task = sys.spawn("worker", 0);
  const vm::VirtAddr va = sys.sys_mmap(task, 8 * kPageSize);
  const auto before = pattern(8 * kPageSize, 3);
  ASSERT_TRUE(sys.mem_write(task, va, before));

  const SimTime t0 = sys.now();
  const std::uint64_t free0 = sys.allocator().global_free_pages();
  const mm::Pfn pfn0 = sys.translate(task, va);
  const auto snap = sys.snapshot();

  // Mutate everything the snapshot covers: data, mappings, time.
  const auto other = pattern(8 * kPageSize, 200);
  ASSERT_TRUE(sys.mem_write(task, va, other));
  const vm::VirtAddr extra = sys.sys_mmap(task, 32 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, extra, pattern(32 * kPageSize, 9)));
  ASSERT_TRUE(sys.sys_munmap(task, va, 4 * kPageSize));
  // Advance the simulated clock (only DRAM accesses move it).
  for (int i = 0; i < 64; ++i) (void)sys.dram().access(i * 8192);
  EXPECT_GT(sys.now(), t0);

  sys.restore(*snap);

  EXPECT_EQ(sys.now(), t0);
  EXPECT_EQ(sys.allocator().global_free_pages(), free0);
  EXPECT_EQ(sys.translate(task, va), pfn0);
  std::vector<std::uint8_t> read_back(before.size());
  ASSERT_TRUE(sys.mem_read(task, va, read_back));
  EXPECT_EQ(read_back, before);
  // The extra mapping never happened.
  EXPECT_EQ(sys.translate(task, extra), mm::kInvalidPfn);
}

TEST(Snapshot, SnapshotSurvivesRepeatedRestoresAndReplaysIdentically) {
  kernel::System sys(small_config(23));
  kernel::Task& task = sys.spawn("worker", 0);
  const vm::VirtAddr va = sys.sys_mmap(task, 4 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, va, pattern(4 * kPageSize, 77)));
  const auto snap = sys.snapshot();

  // One deterministic op sequence, observed twice from the same snapshot.
  const auto run_ops = [&] {
    const vm::VirtAddr grown = sys.sys_mmap(task, 16 * kPageSize);
    EXPECT_TRUE(sys.mem_write(task, grown, pattern(16 * kPageSize, 5)));
    std::vector<std::uint8_t> data(4 * kPageSize);
    EXPECT_TRUE(sys.mem_read(task, va, data));
    return std::make_tuple(grown, sys.translate(task, grown), sys.now(),
                           data);
  };
  const auto first = run_ops();
  sys.restore(*snap);
  const auto second = run_ops();
  EXPECT_EQ(first, second);
  // And the snapshot is still restorable after both replays.
  sys.restore(*snap);
  std::vector<std::uint8_t> data(4 * kPageSize);
  ASSERT_TRUE(sys.mem_read(task, va, data));
  EXPECT_EQ(data, pattern(4 * kPageSize, 77));
}

TEST(Snapshot, RestoreDestroysTasksSpawnedAfterTheSnapshot) {
  kernel::System sys(small_config(31));
  (void)sys.spawn("base", 0);
  const auto snap = sys.snapshot();

  kernel::Task& late = sys.spawn("late", 1);
  const vm::VirtAddr late_va = sys.sys_mmap(late, 8 * kPageSize);
  ASSERT_TRUE(sys.mem_write(late, late_va, pattern(8 * kPageSize, 1)));
  const std::int32_t late_id = late.id();

  sys.restore(*snap);
  // The task table rewound: the next spawn reuses the destroyed task's id
  // (next_task_id was restored) and its frames were returned.
  kernel::Task& again = sys.spawn("again", 1);
  EXPECT_EQ(again.id(), late_id);
}

TEST(Snapshot, RestoredPageTableSupportsFurtherMapAndUnmap) {
  kernel::System sys(small_config(47));
  kernel::Task& task = sys.spawn("worker", 0);
  // Enough pages to span several leaf tables.
  const vm::VirtAddr va = sys.sys_mmap(task, 1200 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, va, pattern(1200 * kPageSize, 99)));
  const std::uint64_t free0 = sys.allocator().global_free_pages();
  const auto snap = sys.snapshot();

  ASSERT_TRUE(sys.sys_munmap(task, va, 1200 * kPageSize));
  EXPECT_GT(sys.allocator().global_free_pages(), free0);

  sys.restore(*snap);
  EXPECT_EQ(sys.allocator().global_free_pages(), free0);
  std::vector<std::uint8_t> data(1200 * kPageSize);
  ASSERT_TRUE(sys.mem_read(task, va, data));
  EXPECT_EQ(data, pattern(1200 * kPageSize, 99));
  // The restored table must keep working: unmap everything again (releases
  // table nodes + frames through the normal path) and remap.
  ASSERT_TRUE(sys.sys_munmap(task, va, 1200 * kPageSize));
  const vm::VirtAddr fresh = sys.sys_mmap(task, 4 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, fresh, pattern(4 * kPageSize, 8)));
}

TEST(Snapshot, RestoreReinstatesEveryTaskTableState) {
  kernel::System sys(small_config(71));
  kernel::Task& a = sys.spawn("a", 0);
  kernel::Task& b = sys.spawn("b", 0);
  const vm::PageTable& a_table = a.space().page_table();
  const vm::PageTable& b_table = b.space().page_table();

  // A munmap that prunes a whole leaf (and keeps the partial one).
  const vm::VirtAddr va = sys.sys_mmap(a, 1200 * kPageSize);
  ASSERT_TRUE(sys.mem_write(a, va, pattern(1200 * kPageSize, 5)));
  const std::uint64_t nodes = a_table.table_nodes();
  ASSERT_TRUE(sys.sys_munmap(a, va, 600 * kPageSize));
  EXPECT_EQ(a_table.table_nodes(), nodes - 1);

  // Exhaust memory, so b's first fault fails to charge its PUD frame and
  // its table keeps only the root.
  const vm::VirtAddr hog = sys.sys_mmap(a, 16 * kMiB);
  for (vm::VirtAddr p = hog; sys.touch(a, p); p += kPageSize) {
  }
  const vm::VirtAddr vb = sys.sys_mmap(b, 4 * kPageSize);
  const std::uint64_t kills = sys.stats().oom_kills;
  EXPECT_FALSE(sys.touch(b, vb));
  EXPECT_EQ(sys.stats().oom_kills, kills + 1);
  EXPECT_EQ(b_table.table_nodes(), 1u);

  const vm::PageTable::State a0 = a_table.state();
  const vm::PageTable::State b0 = b_table.state();
  const auto snap = sys.snapshot();

  ASSERT_TRUE(sys.sys_munmap(a, hog, 16 * kMiB));
  ASSERT_TRUE(sys.mem_write(b, vb, pattern(4 * kPageSize, 6)));
  EXPECT_FALSE(a_table.state() == a0);
  EXPECT_FALSE(b_table.state() == b0);

  sys.restore(*snap);
  EXPECT_TRUE(a_table.state() == a0);
  EXPECT_TRUE(b_table.state() == b0);
}

/// Every public counter of the machine at one instant.
struct Counters {
  std::uint64_t activations = 0, flips = 0, refreshes = 0, trr = 0;
  std::uint64_t ecc_corrected = 0, ecc_uncorrectable = 0;
  SimTime now = 0;
  mm::VmStats vm;
  std::vector<mm::BuddyStats> buddy;  ///< Per zone.
  std::vector<mm::PcpStats> pcp;      ///< Per zone and CPU.
  kernel::SystemStats system;
  std::vector<vm::VmCounters> tasks;  ///< Per task in `tasks` order.

  bool operator==(const Counters&) const = default;
};

Counters read_counters(const kernel::System& sys,
                       const std::vector<const kernel::Task*>& tasks) {
  const dram::DramDevice& d = sys.dram();
  Counters c{d.total_activations(), d.total_flips(),
             d.refresh_count(),     d.trr_interventions(),
             d.ecc_corrected_bits(), d.ecc_uncorrectable_words(),
             sys.now(),             sys.allocator().stats(),
             {},                    {},
             sys.stats(),           {}};
  for (std::size_t z = 0; z < sys.allocator().zone_count(); ++z) {
    const mm::Zone& zone = sys.allocator().zone(z);
    c.buddy.push_back(zone.buddy().stats());
    for (std::uint32_t cpu = 0; cpu < zone.num_cpus(); ++cpu)
      c.pcp.push_back(zone.pcp(cpu).stats());
  }
  for (const kernel::Task* t : tasks) c.tasks.push_back(t->space().counters());
  return c;
}

/// Work that moves every counter Counters reads: demand faults, an
/// unmap, a hammer burst under TRR, one injected single-bit and one
/// double-bit ECC word read back, and a refresh window of idle time.
void churn(kernel::System& sys, kernel::Task& task, std::uint8_t salt) {
  const vm::VirtAddr va = sys.sys_mmap(task, 64 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, va, pattern(64 * kPageSize, salt)));
  const vm::VirtAddr aggressors[] = {va, va + 32 * kPageSize};
  ASSERT_GT(sys.hammer_burst(task, aggressors, 5'000), 0u);
  const dram::PhysAddr word = sys.phys_of(task, va + kPageSize);
  sys.dram().inject_flip(word, 1);
  sys.dram().inject_flip(word + 8, 2);
  sys.dram().inject_flip(word + 9, 3);
  std::vector<std::uint8_t> data(16);
  ASSERT_TRUE(sys.mem_read(task, va + kPageSize, data));
  ASSERT_TRUE(sys.sys_munmap(task, va + 48 * kPageSize, 16 * kPageSize));
  sys.dram().advance(64 * kMillisecond);
}

TEST(Snapshot, RestoreRewindsEveryPublicCounter) {
  kernel::SystemConfig cfg = small_config(67);
  cfg.dram.trr = {true, 1'000, 8};
  cfg.dram.ecc.enabled = true;
  kernel::System sys(cfg);
  kernel::Task& a = sys.spawn("a", 0);
  kernel::Task& b = sys.spawn("b", 1);
  const std::vector<const kernel::Task*> tasks = {&a, &b};
  churn(sys, a, 1);
  churn(sys, b, 2);
  const Counters captured = read_counters(sys, tasks);
  const std::uint64_t epoch = sys.memory_epoch();
  const auto snap = sys.snapshot();

  churn(sys, a, 3);
  churn(sys, b, 4);
  kernel::Task& late = sys.spawn("late", 0);
  churn(sys, late, 5);
  // Every counter moved, so the comparison below is not vacuous.
  const Counters moved = read_counters(sys, tasks);
  EXPECT_NE(moved.activations, captured.activations);
  EXPECT_NE(moved.flips, captured.flips);
  EXPECT_NE(moved.refreshes, captured.refreshes);
  EXPECT_NE(moved.trr, captured.trr);
  EXPECT_NE(moved.ecc_corrected, captured.ecc_corrected);
  EXPECT_NE(moved.ecc_uncorrectable, captured.ecc_uncorrectable);
  EXPECT_NE(moved.now, captured.now);
  EXPECT_NE(moved.vm, captured.vm);
  EXPECT_NE(moved.buddy, captured.buddy);
  EXPECT_NE(moved.pcp, captured.pcp);
  EXPECT_NE(moved.system, captured.system);
  EXPECT_NE(moved.tasks[0], captured.tasks[0]);
  EXPECT_NE(moved.tasks[1], captured.tasks[1]);

  sys.restore(*snap);
  EXPECT_TRUE(read_counters(sys, tasks) == captured);
  EXPECT_GT(sys.memory_epoch(), epoch);  // the one deliberate exception
}

TEST(Timeline, RewindTruncatesAndRestoreOnlyPeeks) {
  kernel::System sys(small_config(59));
  kernel::Task& task = sys.spawn("worker", 0);
  snap::Timeline timeline(sys);

  const vm::VirtAddr va = sys.sys_mmap(task, 2 * kPageSize);
  ASSERT_TRUE(sys.mem_write(task, va, pattern(2 * kPageSize, 1)));
  EXPECT_EQ(timeline.push("one"), 0u);

  ASSERT_TRUE(sys.mem_write(task, va, pattern(2 * kPageSize, 2)));
  EXPECT_EQ(timeline.push("two"), 1u);
  EXPECT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.label(0), "one");

  // restore_only peeks at a layer without dropping the ones above it.
  timeline.restore_only(0);
  std::vector<std::uint8_t> data(2 * kPageSize);
  ASSERT_TRUE(sys.mem_read(task, va, data));
  EXPECT_EQ(data, pattern(2 * kPageSize, 1));
  EXPECT_EQ(timeline.size(), 2u);
  timeline.restore_only(1);
  ASSERT_TRUE(sys.mem_read(task, va, data));
  EXPECT_EQ(data, pattern(2 * kPageSize, 2));

  // rewind_to restores AND truncates the layers above the target.
  timeline.rewind_to(0);
  EXPECT_EQ(timeline.size(), 1u);
  ASSERT_TRUE(sys.mem_read(task, va, data));
  EXPECT_EQ(data, pattern(2 * kPageSize, 1));
}

}  // namespace
}  // namespace explframe
