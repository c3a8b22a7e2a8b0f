// Per-task virtual address space: VMA list + page table + demand-paging
// hooks. The frame-allocation policy itself lives in kernel::System; this
// class owns the virtual-address bookkeeping (mmap/munmap semantics).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "vm/page_table.hpp"

namespace explframe::vm {

/// One mapped region [start, end), anonymous private memory.
struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;  ///< Exclusive, page aligned.

  std::uint64_t pages() const noexcept { return (end - start) / kPageSize; }
  bool contains(VirtAddr va) const noexcept { return va >= start && va < end; }
};

/// Per-address-space fault/mmap accounting (/proc/<pid>/stat shape).
struct VmCounters {
  std::uint64_t minor_faults = 0;
  std::uint64_t mmap_calls = 0;
  std::uint64_t munmap_calls = 0;
  std::uint64_t mapped_peak = 0;

  bool operator==(const VmCounters&) const = default;
};

/// One task's virtual memory: VMA list plus the 4-level page table,
/// with mmap/munmap/translate and demand-fault plumbing. Owns no
/// physical frames itself — those come and go through the FrameClient
/// and fault callbacks.
class AddressSpace {
 public:
  /// mmap region grows upward from here (x86-64 userspace mmap base).
  static constexpr VirtAddr kMmapBase = 0x7f00'0000'0000ULL;

  explicit AddressSpace(FrameClient table_frames = {});

  /// Reserve `length` bytes (rounded up to pages) of anonymous memory.
  /// No physical frames are allocated until first touch — the property the
  /// paper highlights ("the program must store some data into the allocated
  /// pages, otherwise the physical page frames will not be allocated").
  VirtAddr mmap(std::uint64_t length);

  /// Unmap [addr, addr+length). Present pages are returned through
  /// `release`; VMAs are split/trimmed as needed. Returns false if the
  /// range intersects no VMA.
  bool munmap(VirtAddr addr, std::uint64_t length,
              const std::function<void(mm::Pfn)>& release);

  /// True if va lies inside some VMA (i.e. access is legal).
  bool valid(VirtAddr va) const;

  PageTable& page_table() noexcept { return table_; }
  const PageTable& page_table() const noexcept { return table_; }

  const std::map<VirtAddr, Vma>& vmas() const noexcept { return state_.vmas; }
  VmCounters& counters() noexcept { return state_.counters; }
  const VmCounters& counters() const noexcept { return state_.counters; }

  /// Everything mutable except the page table; a snapshot copies it
  /// whole, next to the table's own State. Restoring the mmap cursor is
  /// what makes post-restore mmap() return exactly the addresses a fresh
  /// run would have — forked trials see identical VAs.
  struct State {
    std::map<VirtAddr, Vma> vmas;  ///< Keyed by start address.
    VirtAddr mmap_cursor = kMmapBase;
    VmCounters counters;
  };
  /// Snapshot of the complete address-space state.
  struct Image {
    State state;
    PageTable::State table;
  };

  /// Capture the full state for a snapshot.
  Image capture_image() const { return {state_, table_.state()}; }
  /// Restore a previously captured image exactly.
  void restore_image(const Image& image) {
    state_ = image.state;
    table_.restore(image.table);
  }

 private:
  PageTable table_;
  State state_;
};

}  // namespace explframe::vm
