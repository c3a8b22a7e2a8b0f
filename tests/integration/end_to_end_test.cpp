// Cross-module integration tests: the full stack (DRAM model, page
// allocator, demand paging, crypto service, fault analysis) exercised
// together in ways no single-module test covers.
#include <gtest/gtest.h>

#include "attack/campaign.hpp"
#include "attack/spray.hpp"
#include "kernel/noise.hpp"
#include "support/rng.hpp"

namespace explframe {
namespace {

kernel::SystemConfig integration_cfg(std::uint64_t seed) {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 2;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  c.seed = seed;
  return c;
}

TEST(Integration, AllocatorSurvivesMultiProcessChurnWithHammering) {
  kernel::System sys(integration_cfg(3));
  kernel::Task& a = sys.spawn("proc-a", 0);
  kernel::Task& b = sys.spawn("proc-b", 1);
  kernel::NoiseWorkload na(sys, a, {}, 1);
  kernel::NoiseWorkload nb(sys, b, {}, 2);
  for (int round = 0; round < 20; ++round) {
    na.run(50);
    nb.run(50);
    sys.allocator().verify();
  }
  // Total page accounting: free + pcp + allocated == managed.
  std::uint64_t free_pages = sys.allocator().global_free_pages();
  std::uint64_t pcp = 0, managed = 0;
  for (std::size_t z = 0; z < sys.allocator().zone_count(); ++z) {
    pcp += sys.allocator().zone(z).pcp_pages();
    managed += sys.allocator().zone(z).pages();
  }
  std::uint64_t allocated = 0;
  for (mm::Pfn p = 0; p < sys.allocator().total_pages(); ++p) {
    if (sys.allocator().frames().at(p).state == mm::PageState::kAllocated)
      ++allocated;
  }
  EXPECT_EQ(free_pages + pcp + allocated, managed);
}

TEST(Integration, FlipInVictimDataVisibleThroughVirtualRead) {
  // A flip injected at the DRAM level must surface through the full
  // VA -> PTE -> PFN -> DRAM read path.
  kernel::System sys(integration_cfg(4));
  kernel::Task& t = sys.spawn("victim", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, kPageSize);
  std::vector<std::uint8_t> page(kPageSize, 0xFF);
  ASSERT_TRUE(sys.mem_write(t, va, {page.data(), page.size()}));

  const auto phys = sys.phys_of(t, va + 100);
  sys.dram().write_byte(phys, 0x7F);  // simulate flip of bit 7

  std::uint8_t out = 0;
  ASSERT_TRUE(sys.mem_read(t, va + 100, {&out, 1}));
  EXPECT_EQ(out, 0x7F);
}

TEST(Integration, ExplFrameBeatsSprayBaseline) {
  // The paper's headline comparison at small scale: targeted ExplFrame
  // corrupts the victim where blind spraying does not.
  std::size_t explframe_hits = 0;
  std::size_t spray_hits = 0;
  std::size_t attempts = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    {
      kernel::System sys(integration_cfg(seed));
      attack::CampaignConfig cfg;
      cfg.templating.buffer_bytes = 4 * kMiB;
      cfg.templating.hammer_iterations = 100'000;
      cfg.ciphertext_budget = 1;  // corruption only; skip full PFA here
      cfg.seed = seed;
      const auto r =
          attack::TemplatedCampaign(sys, cfg, false).run_fork(cfg);
      if (!r.template_found) continue;
      ++attempts;
      explframe_hits += r.fault_injected ? 1 : 0;
    }
    {
      kernel::System sys(integration_cfg(seed));
      attack::SprayConfig cfg;
      cfg.buffer_bytes = 4 * kMiB;
      cfg.hammer_iterations = 100'000;
      cfg.pairs = 8;
      cfg.seed = seed;
      attack::SprayBaseline spray(sys, cfg);
      spray_hits += spray.run().victim_corrupted ? 1 : 0;
    }
  }
  ASSERT_GT(attempts, 0u);
  EXPECT_GT(explframe_hits, spray_hits);
}

TEST(Integration, SprayStillFlipsSomewhere) {
  // Blind hammering does produce flips — just not in the victim.
  kernel::System sys(integration_cfg(20));
  attack::SprayConfig cfg;
  cfg.buffer_bytes = 4 * kMiB;
  cfg.hammer_iterations = 100'000;
  cfg.pairs = 16;
  attack::SprayBaseline spray(sys, cfg);
  const auto report = spray.run();
  EXPECT_GT(report.flips_anywhere, 0u);
}

TEST(Integration, SprayReportIsPinned) {
  // The spray baseline hammers on System::hammer_burst. Its exact report
  // and the DRAM counters behind it are pinned to the values the former
  // per-access uncached_access loop produced, with TRR off and on.
  struct Pin {
    std::uint64_t seed;
    bool trr;
    std::uint64_t flips;
    SimTime total_time;
    std::uint64_t activations;
    std::uint64_t trr_interventions;
  };
  for (const Pin& pin : {Pin{20, false, 20, 280'012'200, 3'000'065, 0},
                         Pin{11, true, 3, 280'012'160, 3'000'064, 141}}) {
    kernel::SystemConfig sc = integration_cfg(pin.seed);
    sc.dram.trr.enabled = pin.trr;
    kernel::System sys(sc);
    attack::SprayConfig cfg;
    cfg.buffer_bytes = 4 * kMiB;
    cfg.hammer_iterations = 100'000;
    cfg.pairs = 16;
    cfg.seed = pin.seed;
    const auto report = attack::SprayBaseline(sys, cfg).run();
    EXPECT_FALSE(report.victim_corrupted) << pin.seed;
    EXPECT_EQ(report.flips_anywhere, pin.flips) << pin.seed;
    EXPECT_EQ(report.total_time, pin.total_time) << pin.seed;
    EXPECT_EQ(sys.dram().total_activations(), pin.activations) << pin.seed;
    EXPECT_EQ(sys.dram().trr_interventions(), pin.trr_interventions)
        << pin.seed;
    EXPECT_EQ(sys.dram().refresh_count(), 4u) << pin.seed;
  }
}

TEST(Integration, RefreshPreventsFlipsAtLowRate) {
  // Hammering spread over many refresh windows never accumulates enough
  // disturbance — the defence DRAM vendors rely on.
  kernel::System sys(integration_cfg(5));
  kernel::Task& t = sys.spawn("slow-hammer", 0);
  const vm::VirtAddr va = sys.sys_mmap(t, 64 * kPageSize);
  for (int p = 0; p < 64; ++p) {
    const std::uint8_t b = 0xFF;
    ASSERT_TRUE(sys.mem_write(t, va + p * kPageSize, {&b, 1}));
  }
  sys.dram().drain_flips();
  // Same-bank pair one bank-sweep apart: every access is an activation.
  const std::uint64_t stride =
      static_cast<std::uint64_t>(sys.dram().geometry().row_bytes) *
      sys.dram().geometry().banks;
  const auto acts_before = sys.dram().total_activations();
  // Pair deep inside the buffer (the first pages are contiguity outliers).
  const vm::VirtAddr lo = va + 2 * stride;
  const vm::VirtAddr hi = lo + stride;
  // ~1400 activations per window (well under every threshold), many windows.
  const vm::VirtAddr pair[2] = {lo, hi};
  for (int w = 0; w < 20; ++w) {
    sys.hammer_burst(t, pair, 700);
    sys.dram().advance(70 * kMillisecond);
  }
  EXPECT_GT(sys.dram().total_activations(), acts_before + 20000);
  EXPECT_EQ(sys.dram().drain_flips().size(), 0u);
}

}  // namespace
}  // namespace explframe
