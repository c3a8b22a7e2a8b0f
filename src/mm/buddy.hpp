// Binary buddy allocator — the core physical page allocator of one zone
// (Linux's `free_area[]` / `__rmqueue` / `__free_one_page`).
//
// Blocks are 2^order pages, order 0..kMaxOrder-1. Allocation splits the
// smallest sufficient free block; freeing greedily coalesces with the buddy
// block (address XOR (1 << order)) while possible — exactly the mechanism in
// Fig. 1 of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "mm/page.hpp"

namespace explframe::mm {

/// Counters of buddy-allocator activity (split/coalesce totals drive the
/// Fig. 1 reproduction).
struct BuddyStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t splits = 0;     ///< Block split events (Fig. 1 left-to-right).
  std::uint64_t coalesces = 0;  ///< Buddy merge events (Fig. 1 right-to-left).
  std::uint64_t failed = 0;

  bool operator==(const BuddyStats&) const = default;
};

/// One step of the split path taken by an allocation, for the Fig. 1
/// reproduction: "took a block of `from_order`, split down to `to_order`".
struct SplitTraceEntry {
  Pfn block = kInvalidPfn;
  std::uint32_t from_order = 0;
  std::uint32_t to_order = 0;
};

/// Binary buddy allocator over one zone's pfn range: power-of-two block
/// split/coalesce exactly as Linux mm/page_alloc.c models it, with the
/// split-trace hook the templating story reads.
class BuddyAllocator {
 public:
  /// Manages pfns [start_pfn, start_pfn + pages). `pages` need not be a
  /// power of two; the range is tiled greedily with maximal aligned blocks.
  BuddyAllocator(PageFrameDatabase& db, Pfn start_pfn, std::uint64_t pages,
                 std::uint8_t zone_index);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;
  BuddyAllocator(BuddyAllocator&&) = default;

  /// Allocate a 2^order block. Returns kInvalidPfn on failure. If `trace`
  /// is non-null the split path is appended to it.
  Pfn alloc_block(std::uint32_t order,
                  std::vector<SplitTraceEntry>* trace = nullptr);

  /// Free a 2^order block previously returned by alloc_block.
  void free_block(Pfn pfn, std::uint32_t order);

  std::uint64_t free_pages() const noexcept { return state_.free_pages; }
  std::uint64_t free_blocks(std::uint32_t order) const;
  const BuddyStats& stats() const noexcept { return state_.stats; }

  Pfn start_pfn() const noexcept { return start_; }
  std::uint64_t managed_pages() const noexcept { return pages_; }

  /// /proc/buddyinfo-style row: free block count per order.
  std::array<std::uint64_t, kMaxOrder> buddyinfo() const;

  /// Exhaustive consistency check (tests): free lists vs page states, no
  /// overlapping blocks, free page accounting. Aborts on violation.
  void verify() const;

  /// The allocator's mutable state; a snapshot copies it whole (the
  /// page-frame states live in the shared PageFrameDatabase and are
  /// captured there).
  struct State {
    /// Zone-relative pfns of free block heads, ordered by address. Linux
    /// uses FIFO/LIFO lists; address order is deterministic and makes the
    /// split traces stable across runs (the pcp cache, not buddy order,
    /// carries the paper's exploit).
    std::array<std::set<Pfn>, kMaxOrder> free_lists;
    std::uint64_t free_pages = 0;
    BuddyStats stats;
  };
  const State& state() const noexcept { return state_; }
  /// Restore a previously captured state exactly.
  void restore(const State& state) { state_ = state; }

 private:
  Pfn buddy_of(Pfn rel, std::uint32_t order) const noexcept {
    return rel ^ (Pfn{1} << order);
  }
  void insert_free(Pfn rel, std::uint32_t order);
  void remove_free(Pfn rel, std::uint32_t order);
  void mark_allocated(Pfn rel, std::uint32_t order);

  PageFrameDatabase* db_;
  Pfn start_;
  std::uint64_t pages_;
  std::uint8_t zone_index_;
  State state_;
};

}  // namespace explframe::mm
