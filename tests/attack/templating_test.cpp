#include "attack/templating.hpp"

#include <gtest/gtest.h>

#include <iterator>

namespace explframe::attack {
namespace {

kernel::SystemConfig hammerable_cfg() {
  kernel::SystemConfig c;
  c.memory_bytes = 64 * kMiB;
  c.num_cpus = 1;
  c.dram.weak_cells.cells_per_mib = 128.0;
  c.dram.weak_cells.threshold_log_mean = 10.4;  // median ~33K activations
  c.dram.weak_cells.threshold_min = 25'000;
  c.dram.weak_cells.threshold_max = 60'000;
  c.dram.data_pattern_sensitivity = false;
  c.seed = 11;
  return c;
}

TemplateConfig fast_template() {
  TemplateConfig t;
  t.buffer_bytes = 2 * kMiB;
  t.hammer_iterations = 100'000;
  t.both_polarities = true;
  return t;
}

TEST(Templater, StrideDiscoveryFindsBankSweep) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  // With 8 banks and 8 KiB rows, same-bank neighbouring rows are one bank
  // sweep (64 KiB) apart in physical (and hence buffer-VA) space.
  EXPECT_EQ(templater.row_stride(),
            sys.dram().geometry().banks *
                static_cast<std::uint64_t>(sys.dram().geometry().row_bytes));
}

TEST(Templater, BufferIsMostlyPhysicallyContiguous) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  const vm::VirtAddr base = templater.buffer_va();
  std::uint64_t contiguous = 0;
  for (std::uint64_t p = 0; p + 1 < templater.buffer_pages(); ++p) {
    const mm::Pfn a = sys.translate(attacker, base + p * kPageSize);
    const mm::Pfn b = sys.translate(attacker, base + (p + 1) * kPageSize);
    if (b == a + 1) ++contiguous;
  }
  // The attacker's contiguity assumption: the vast majority of neighbours.
  EXPECT_GT(contiguous, templater.buffer_pages() * 8 / 10);
}

TEST(Templater, ScanFindsFlipsInVulnerableBuffer) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  TemplateConfig cfg = fast_template();
  (void)cfg;
  const auto report = templater.scan();
  EXPECT_GT(report.rows_scanned, 0u);
  EXPECT_GT(report.flips.size(), 0u);
  EXPECT_GT(report.pages_with_flips, 0u);
  // Flip records are internally consistent.
  for (const auto& f : report.flips) {
    EXPECT_GE(f.page_va, templater.buffer_va());
    EXPECT_LT(f.offset, kPageSize);
    EXPECT_LT(f.bit, 8);
    EXPECT_EQ(f.aggressor_hi - f.aggressor_lo, 2 * templater.row_stride());
  }
}

TEST(Templater, FlipsMatchGroundTruthWeakCells) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  const auto report = templater.scan();
  ASSERT_GT(report.flips.size(), 0u);
  for (const auto& f : report.flips) {
    const auto phys = sys.phys_of(attacker, f.page_va);
    const auto coord = sys.dram().mapping().decode(phys);
    const auto flat = dram::flat_row(sys.dram().geometry(), coord);
    const auto& cells = sys.dram().weak_cells().cells_in_row(flat);
    bool matches = false;
    for (const auto& cell : cells) {
      if (cell.col % kPageSize == f.offset && cell.bit == f.bit &&
          cell.true_cell == !f.to_one) {
        matches = true;
      }
    }
    EXPECT_TRUE(matches) << "templated flip has no underlying weak cell";
  }
}

TEST(Templater, StopAfterLimitsScan) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.stop_after = 1;
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  EXPECT_EQ(report.pages_with_flips, 1u);
  // A full scan of the 2 MiB buffer would visit ~254 rows.
  EXPECT_LT(report.rows_scanned, 250u);
}

TEST(Templater, ScanUntilPredicateStopsEarly) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  const auto report = templater.scan_until(
      [](const FlipRecord& f) { return f.offset < kPageSize / 2; });
  bool found = false;
  for (const auto& f : report.flips) found |= f.offset < kPageSize / 2;
  EXPECT_TRUE(found);
}

TEST(Templater, RehammerReproducesFlip) {
  // The §VI observation: "high probability of getting bit flips in the same
  // location when conducting Rowhammer on the same virtual address space".
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  const auto report = templater.scan();
  ASSERT_GT(report.flips.size(), 0u);
  const FlipRecord& f = report.flips.front();

  // Restore the charged pattern at the flip location, then re-hammer.
  const std::uint8_t charged =
      f.to_one ? 0x00 : 0xFF;  // anti cells flip 0->1, true cells 1->0
  ASSERT_TRUE(sys.mem_write(attacker, f.page_va + f.offset, {&charged, 1}));
  sys.dram().refresh_now();
  sys.dram().drain_flips();
  templater.hammer_aggressors(f);
  std::uint8_t now = 0;
  ASSERT_TRUE(sys.mem_read(attacker, f.page_va + f.offset, {&now, 1}));
  EXPECT_EQ(((now >> f.bit) & 1u) != 0, f.to_one);
}

TEST(Templater, RandomPairStrategyFindsFlips) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.strategy = TemplateStrategy::kRandomPairs;
  cfg.max_rows = 96;  // hammer sessions
  cfg.seed = 5;
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  EXPECT_GT(report.flips.size(), 0u);
  for (const auto& f : report.flips) {
    EXPECT_GE(f.page_va, templater.buffer_va());
    EXPECT_NE(f.aggressor_lo, f.aggressor_hi);
  }
}

TEST(Templater, RandomPairsWorkUnderXorBankHashing) {
  // XOR bank hashing misleads the contiguous-stride strategy but not
  // random-pair templating.
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.mapping = dram::MappingScheme::kBankXor;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.strategy = TemplateStrategy::kRandomPairs;
  cfg.max_rows = 96;
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  EXPECT_GT(report.flips.size(), 0u);
}

TEST(Templater, ContiguousStrategyMisledByXorBankHashing) {
  // Under XOR hashing the smallest conflicting stride is banks rows away:
  // the "double-sided" aggressors are then far from the scanned row and the
  // scan comes up empty — the stride heuristic is defeated silently.
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.mapping = dram::MappingScheme::kBankXor;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  Templater templater(sys, attacker, fast_template());
  templater.allocate_buffer();
  // Discovered stride is a whole bank-sweep times the bank count.
  EXPECT_EQ(templater.row_stride(),
            static_cast<std::uint64_t>(sys.dram().geometry().banks) *
                sys.dram().geometry().banks *
                sys.dram().geometry().row_bytes);
  TemplateConfig budget = fast_template();
  (void)budget;
  const auto report = templater.scan();
  EXPECT_EQ(report.flips.size(), 0u);
}

TEST(Templater, ScanReportsArePinned) {
  // Every timing probe (stride discovery, the random-pairs bank check and
  // the contiguous bank check) is pinned, through the reports it shapes, to
  // the values the former per-access probe loop produced.
  // A fragmenting task first leaves every other frame of a 64-page run
  // free, so the buffer is not contiguous there and some contiguous bank
  // checks fail: the conflict threshold is exercised on both sides.
  struct Pin {
    dram::MappingScheme mapping;
    TemplateStrategy strategy;
    bool fragment;
    SimTime allocated_at;  ///< Clock after allocate_buffer's stride probes.
    std::uint64_t row_stride;
    std::uint64_t rows_scanned;
    std::uint64_t rows_skipped_timing;
    std::uint64_t rows_skipped_edge;
    std::uint64_t pages_with_flips;
    std::size_t flips;
    SimTime elapsed;
  };
  constexpr auto kRowMajor = dram::MappingScheme::kRowMajor;
  constexpr auto kXor = dram::MappingScheme::kBankXor;
  constexpr auto kContiguous = TemplateStrategy::kContiguousDoubleSided;
  constexpr auto kRandom = TemplateStrategy::kRandomPairs;
  const Pin pins[] = {
      {kRowMajor, kContiguous, false, 12'200, 65536, 240, 0, 0, 179, 232,
       8'640'691'200},
      {kRowMajor, kContiguous, true, 12'200, 65536, 240, 12, 0, 170, 222,
       8'208'676'800},
      {kXor, kContiguous, true, 19'520, 524288, 128, 12, 0, 0, 0,
       4'176'354'240},
      {kRowMajor, kRandom, false, 12'200, 65536, 192, 0, 0, 140, 347,
       3'457'495'600},
      {kXor, kRandom, false, 19'560, 524288, 192, 0, 0, 134, 358,
       3'457'555'040},
  };
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const Pin& pin = pins[i];
    kernel::SystemConfig c = hammerable_cfg();
    c.dram.mapping = pin.mapping;
    kernel::System sys(c);
    if (pin.fragment) {
      kernel::Task& other = sys.spawn("fragmenter", 0);
      const vm::VirtAddr va = sys.sys_mmap(other, 64 * kPageSize);
      for (std::uint64_t p = 0; p < 64; ++p)
        ASSERT_TRUE(sys.touch(other, va + p * kPageSize));
      for (std::uint64_t p = 0; p < 64; p += 2)
        ASSERT_TRUE(sys.sys_munmap(other, va + p * kPageSize, kPageSize));
    }
    kernel::Task& attacker = sys.spawn("attacker", 0);
    TemplateConfig cfg = fast_template();
    cfg.strategy = pin.strategy;
    if (pin.strategy == kRandom) {
      cfg.max_rows = 96;
      cfg.seed = 5;
    }
    Templater templater(sys, attacker, cfg);
    templater.allocate_buffer();
    EXPECT_EQ(sys.now(), pin.allocated_at) << i;
    const auto report = templater.scan();
    EXPECT_EQ(templater.row_stride(), pin.row_stride) << i;
    EXPECT_EQ(report.rows_scanned, pin.rows_scanned) << i;
    EXPECT_EQ(report.rows_skipped_timing, pin.rows_skipped_timing) << i;
    EXPECT_EQ(report.rows_skipped_edge, pin.rows_skipped_edge) << i;
    EXPECT_EQ(report.pages_with_flips, pin.pages_with_flips) << i;
    EXPECT_EQ(report.flips.size(), pin.flips) << i;
    EXPECT_EQ(report.elapsed, pin.elapsed) << i;
  }
}

TEST(Templater, MaxRowsBudgetRespected) {
  kernel::System sys(hammerable_cfg());
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.max_rows = 7;
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  EXPECT_EQ(report.rows_scanned, 7u);
}

TEST(Templater, NoFlipsOnHealthyDram) {
  kernel::SystemConfig c = hammerable_cfg();
  c.dram.weak_cells.cells_per_mib = 0.0;
  kernel::System sys(c);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  TemplateConfig cfg = fast_template();
  cfg.buffer_bytes = 512 * kKiB;  // keep runtime low
  Templater templater(sys, attacker, cfg);
  templater.allocate_buffer();
  const auto report = templater.scan();
  EXPECT_EQ(report.flips.size(), 0u);
  EXPECT_EQ(report.pages_with_flips, 0u);
}

}  // namespace
}  // namespace explframe::attack
