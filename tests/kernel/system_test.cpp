#include "kernel/system.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace explframe::kernel {
namespace {

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.memory_bytes = 64 * kMiB;
  cfg.num_cpus = 2;
  cfg.dram.weak_cells.cells_per_mib = 0.0;
  return cfg;
}

TEST(System, SpawnAndFindTask) {
  System sys(small_cfg());
  Task& t = sys.spawn("worker", 1);
  EXPECT_EQ(t.cpu(), 1u);
  EXPECT_EQ(t.name(), "worker");
  EXPECT_EQ(sys.find_task(t.id()), &t);
  EXPECT_EQ(sys.find_task(9999), nullptr);
}

TEST(System, MmapDoesNotAllocateFrames) {
  System sys(small_cfg());
  Task& t = sys.spawn("lazy", 0);
  const auto faults_before = sys.stats().page_faults;
  sys.sys_mmap(t, 100 * kPageSize);
  // "the program must store some data into the allocated pages, otherwise
  // the physical page frames will not be allocated" (§V).
  EXPECT_EQ(sys.stats().page_faults, faults_before);
  EXPECT_EQ(t.space().page_table().mapped_pages(), 0u);
}

TEST(System, WriteFaultsPagesIn) {
  System sys(small_cfg());
  Task& t = sys.spawn("writer", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, 3 * kPageSize);
  std::vector<std::uint8_t> data(2 * kPageSize + 100, 0xCD);
  EXPECT_TRUE(sys.mem_write(t, va, {data.data(), data.size()}));
  EXPECT_EQ(t.space().page_table().mapped_pages(), 3u);
  EXPECT_EQ(t.space().counters().minor_faults, 3u);
}

TEST(System, ReadBackAcrossPages) {
  System sys(small_cfg());
  Task& t = sys.spawn("rw", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, 2 * kPageSize);
  std::vector<std::uint8_t> data(kPageSize + 512);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(sys.mem_write(t, va + 100, {data.data(), data.size()}));
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sys.mem_read(t, va + 100, {out.data(), out.size()}));
  EXPECT_EQ(data, out);
}

TEST(System, ZeroOnAllocClearsOldData) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = false;  // isolate the data-page path
  System sys(cfg);
  Task& a = sys.spawn("first", 0);
  const vm::VirtAddr va = sys.sys_mmap(a, kPageSize);
  const std::uint8_t secret[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(sys.mem_write(a, va, secret));
  const mm::Pfn pfn = sys.translate(a, va);
  sys.sys_munmap(a, va, kPageSize);

  Task& b = sys.spawn("second", 0);
  const vm::VirtAddr vb = sys.sys_mmap(b, kPageSize);
  std::uint8_t probe = 0xFF;
  ASSERT_TRUE(sys.mem_write(b, vb + 100, {&probe, 1}));  // fault it in
  ASSERT_EQ(sys.translate(b, vb), pfn);  // same frame, via the pcp cache
  std::uint8_t out[4];
  ASSERT_TRUE(sys.mem_read(b, vb, out));
  EXPECT_EQ(out[0], 0);  // zeroed on allocation
}

TEST(System, AccessOutsideVmaFails) {
  System sys(small_cfg());
  Task& t = sys.spawn("segv", 0);
  std::uint8_t b = 1;
  EXPECT_FALSE(sys.mem_write(t, 0xdead0000, {&b, 1}));
  EXPECT_FALSE(sys.mem_read(t, 0xdead0000, {&b, 1}));
  const vm::VirtAddr bad[1] = {0xdead0000};
  EXPECT_EQ(sys.hammer_burst(t, bad, 1), 0u);
}

TEST(System, MunmapSendsFrameToPcpHead) {
  // The full paper mechanism at syscall level: munmap on CPU c, next
  // order-0 fault on CPU c receives the same frame. The victim process is
  // already warm (its page-table nodes exist), as in the paper's scenario
  // of a long-running victim.
  System sys(small_cfg());
  Task& attacker = sys.spawn("attacker", 0);
  Task& victim = sys.spawn("victim", 0);
  const vm::VirtAddr warm = sys.sys_mmap(victim, kPageSize);
  const std::uint8_t w = 9;
  ASSERT_TRUE(sys.mem_write(victim, warm, {&w, 1}));

  const vm::VirtAddr va = sys.sys_mmap(attacker, 4 * kPageSize);
  for (int p = 0; p < 4; ++p) {
    const std::uint8_t b = 1;
    ASSERT_TRUE(sys.mem_write(attacker, va + p * kPageSize, {&b, 1}));
  }
  const mm::Pfn target = sys.translate(attacker, va + 2 * kPageSize);
  ASSERT_TRUE(sys.sys_munmap(attacker, va + 2 * kPageSize, kPageSize));

  const vm::VirtAddr vv = sys.sys_mmap(victim, kPageSize);
  const std::uint8_t b = 2;
  ASSERT_TRUE(sys.mem_write(victim, vv, {&b, 1}));
  EXPECT_EQ(sys.translate(victim, vv), target);
}

TEST(System, CrossCpuMunmapDoesNotSteer) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = false;  // isolate the data-page path
  System sys(cfg);
  Task& attacker = sys.spawn("attacker", 0);
  const vm::VirtAddr va = sys.sys_mmap(attacker, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(attacker, va, {&b, 1}));
  const mm::Pfn target = sys.translate(attacker, va);
  sys.sys_munmap(attacker, va, kPageSize);

  Task& victim = sys.spawn("victim", 1);  // different CPU
  const vm::VirtAddr vv = sys.sys_mmap(victim, kPageSize);
  ASSERT_TRUE(sys.mem_write(victim, vv, {&b, 1}));
  EXPECT_NE(sys.translate(victim, vv), target);
}

TEST(System, UncachedAccessReturnsLatencyAndFaults) {
  System sys(small_cfg());
  Task& t = sys.spawn("hammer", 0);
  const vm::VirtAddr va[1] = {sys.sys_mmap(t, kPageSize)};
  const SimTime lat = sys.hammer_burst(t, va, 1);
  EXPECT_EQ(lat, sys.dram().params().timings.row_conflict_ns);
  EXPECT_EQ(t.space().page_table().mapped_pages(), 1u);
}

TEST(System, PageTableFramesCharged) {
  SystemConfig cfg = small_cfg();
  cfg.charge_page_tables = true;
  System sys(cfg);
  const auto before = sys.stats().table_frames;
  Task& t = sys.spawn("pt", 0);
  EXPECT_GT(sys.stats().table_frames, before);  // root charged at spawn
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(t, va, {&b, 1}));
  EXPECT_GE(sys.stats().table_frames, before + 4);
}

TEST(System, PhysOfMatchesTranslate) {
  System sys(small_cfg());
  Task& t = sys.spawn("phys", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 1;
  ASSERT_TRUE(sys.mem_write(t, va, {&b, 1}));
  EXPECT_EQ(sys.phys_of(t, va + 123),
            static_cast<dram::PhysAddr>(sys.translate(t, va)) * kPageSize + 123);
}

TEST(System, DataPersistsInDram) {
  System sys(small_cfg());
  Task& t = sys.spawn("dram", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  const std::uint8_t b = 0x77;
  ASSERT_TRUE(sys.mem_write(t, va + 5, {&b, 1}));
  EXPECT_EQ(sys.dram().read_byte(sys.phys_of(t, va + 5)), 0x77);
}

}  // namespace
}  // namespace explframe::kernel
