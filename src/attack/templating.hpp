// Memory templating (§VI of the paper): the attacker allocates a large
// buffer, hammers it and records which of her own pages contain cells that
// flip — entirely from user level, using only virtual addresses and the
// row-conflict timing channel.
//
// The attacker assumes that pages faulted in sequentially are mostly
// physically contiguous (true on a freshly booted buddy allocator, and in
// this simulation for the same reason), so for a candidate target row she
// hammers the rows one row-size above and below it, verifying the bank
// guess with the timing channel first.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kernel/system.hpp"
#include "support/rng.hpp"

namespace explframe::attack {

/// One reproducible flip found during templating, in attacker VA space.
struct FlipRecord {
  vm::VirtAddr page_va = 0;     ///< Attacker page containing the flip.
  std::uint32_t offset = 0;     ///< Byte offset within the page.
  std::uint8_t bit = 0;
  bool to_one = false;          ///< Direction observed (0->1 or 1->0).
  vm::VirtAddr aggressor_lo = 0;  ///< The two rows hammered (VAs).
  vm::VirtAddr aggressor_hi = 0;

  bool operator==(const FlipRecord&) const = default;
};

/// How the attacker picks aggressor rows.
enum class TemplateStrategy {
  /// Assume VA contiguity, discover the bank stride by timing, hammer
  /// double-sided around each candidate row. Fast, but requires a linear
  /// bank function (defeated by XOR bank hashing).
  kContiguousDoubleSided,
  /// Pick random same-bank pairs (verified by timing) and rescan the whole
  /// buffer after each hammer session — the original Kim'14 approach. Works
  /// under any bank hash at a (measured) efficiency cost.
  kRandomPairs,
};

/// The attacker's templating budgets and strategy choice.
struct TemplateConfig {
  TemplateStrategy strategy = TemplateStrategy::kContiguousDoubleSided;
  std::uint64_t buffer_bytes = 16 * kMiB;
  /// Hammer iterations per candidate row (each iteration touches both
  /// aggressors once). Must span at least one full refresh window of
  /// activations for the strongest cells to have a chance.
  std::uint64_t hammer_iterations = 500'000;
  /// Test both data polarities (finds anti-cells as well as true cells at
  /// twice the cost).
  bool both_polarities = true;
  /// Stop scanning once this many vulnerable pages are known (0 = scan all).
  std::uint32_t stop_after = 0;
  /// Give up after scanning this many candidate rows / hammering this many
  /// random pairs (0 = one pass over the buffer) — the attacker's budget.
  std::uint64_t max_rows = 0;
  /// Seed for the random-pair strategy.
  std::uint64_t seed = 1;

  bool operator==(const TemplateConfig&) const = default;
};

/// What a scan found, plus the cost accounting the experiments report.
struct TemplateReport {
  std::vector<FlipRecord> flips;
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_skipped_timing = 0;  ///< Bank check failed (layout gap).
  /// Target row sits at a physical bank edge (one neighbour missing) — the
  /// row was skipped, not hammered (previously miscounted as "no flips").
  std::uint64_t rows_skipped_edge = 0;
  std::uint64_t pages_with_flips = 0;
  SimTime elapsed = 0;
};

/// Append one FlipRecord to `out` for every bit of `data` that differs from
/// `pattern`, in (offset, bit) order. `data` was read back from `base_va`;
/// each record's page_va/offset split that address at page boundaries and
/// carries the two aggressor VAs given. Compares 64-byte blocks (eight
/// words at a time) and looks at single bytes only inside blocks that
/// differ; any length works.
void scan_flips(std::span<const std::uint8_t> data, std::uint8_t pattern,
                vm::VirtAddr base_va, vm::VirtAddr aggressor_lo,
                vm::VirtAddr aggressor_hi, std::vector<FlipRecord>& out);

/// Discover the same-bank row stride of the machine purely through the
/// row-conflict timing channel: the smallest power-of-two stride at which
/// `base` and `base + stride` keep evicting each other's row buffer. On the
/// default geometry this finds banks * row_bytes (physically consecutive
/// 8 KiB blocks interleave across banks; same-bank neighbouring rows are one
/// full bank sweep apart). Returns 0 if no stride up to `limit` conflicts.
std::uint64_t discover_row_stride(kernel::System& system, kernel::Task& task,
                                  vm::VirtAddr base, std::uint64_t limit);

/// The templating phase: allocates the attack buffer, scans it for
/// hammerable pages and can later re-hammer a recorded flip's aggressors.
class Templater {
 public:
  Templater(kernel::System& system, kernel::Task& attacker,
            const TemplateConfig& config);

  /// Allocate and fault in the attack buffer. Must be called once first.
  void allocate_buffer();

  /// Scan the buffer for hammerable pages.
  TemplateReport scan();

  /// Scan, stopping early as soon as a flip satisfying `good` is found
  /// (e.g. "flip lands inside the S-box window and has usable polarity").
  TemplateReport scan_until(const std::function<bool(const FlipRecord&)>& good);

  vm::VirtAddr buffer_va() const noexcept { return buffer_va_; }
  std::uint64_t buffer_pages() const noexcept { return buffer_pages_; }
  /// VA distance between same-bank neighbouring rows (timing-discovered).
  std::uint64_t row_stride() const noexcept { return row_stride_; }

  /// Re-hammer the aggressors recorded for a flip (used again after the
  /// victim owns the page). Returns the simulated time spent.
  SimTime hammer_aggressors(const FlipRecord& flip) const;

  /// Same, with an explicit iteration count — the time-travel debugger's
  /// bisection probe hammers partial budgets to find the flipping
  /// iteration.
  SimTime hammer_aggressors(const FlipRecord& flip,
                            std::uint64_t iterations) const;

 private:
  /// Hammer the pair and check the candidate row's pages for flips.
  /// `pattern` is 0xFF or 0x00; allocates nothing.
  void probe_row(vm::VirtAddr target_row_va, std::uint8_t pattern,
                 TemplateReport& report);

  TemplateReport scan_contiguous(
      const std::function<bool(const FlipRecord&)>& good);
  TemplateReport scan_random_pairs(
      const std::function<bool(const FlipRecord&)>& good);

  kernel::System* system_;
  kernel::Task* attacker_;
  TemplateConfig config_;
  vm::VirtAddr buffer_va_ = 0;
  std::uint64_t buffer_pages_ = 0;
  std::uint32_t row_bytes_ = 0;
  std::uint64_t row_stride_ = 0;
  // probe_row's fill rows and readback buffer, one row each, reused by
  // every probe.
  std::vector<std::uint8_t> ones_row_;
  std::vector<std::uint8_t> zeros_row_;
  std::vector<std::uint8_t> readback_;
};

}  // namespace explframe::attack
