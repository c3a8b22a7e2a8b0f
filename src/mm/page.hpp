// Page frame bookkeeping — the simulated `struct page` array (memmap).
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/units.hpp"

namespace explframe::mm {

/// Page frame number: physical address >> 12.
using Pfn = std::uint64_t;

inline constexpr Pfn kInvalidPfn = ~0ULL;
inline constexpr std::uint32_t kMaxOrder = 11;  ///< Blocks of 1..1024 pages.

/// Where a physical frame currently lives, from the allocator's point of
/// view.
enum class PageState : std::uint8_t {
  kReserved,   ///< Not managed by the allocator (holes, firmware).
  kFreeBuddy,  ///< Head page of a free buddy block.
  kFreeTail,   ///< Non-head page inside a free buddy block.
  kPcp,        ///< Sitting in a per-CPU page frame cache.
  kAllocated,  ///< Handed out to a task or the kernel.
};

/// Per-frame metadata, mirroring the fields of Linux's struct page that the
/// allocator needs: state, buddy order (valid for kFreeBuddy heads), owning
/// zone, and — for experiment ground truth — the id of the task that last
/// touched the frame.
struct PageFrame {
  PageState state = PageState::kReserved;
  std::uint8_t order = 0;     ///< Buddy order if state == kFreeBuddy.
  std::uint8_t zone_index = 0;
  std::int32_t owner_task = -1;  ///< Last allocator client (diagnostics).
  std::uint64_t alloc_seq = 0;   ///< Global sequence number of last alloc.
};

/// Flat array of PageFrame covering all physical memory.
class PageFrameDatabase {
 public:
  explicit PageFrameDatabase(std::uint64_t total_pages)
      : frames_(total_pages) {}

  PageFrame& at(Pfn pfn) {
    EXPLFRAME_CHECK(pfn < frames_.size());
    return frames_[pfn];
  }
  const PageFrame& at(Pfn pfn) const {
    EXPLFRAME_CHECK(pfn < frames_.size());
    return frames_[pfn];
  }

  std::uint64_t size() const noexcept { return frames_.size(); }

  // ---- Snapshot support (whole-array capture/restore) ----
  /// The full frame array, for snapshot capture.
  const std::vector<PageFrame>& all_frames() const noexcept { return frames_; }
  /// Restore a previously captured frame array (same machine, same size).
  void restore_frames(const std::vector<PageFrame>& frames) {
    EXPLFRAME_CHECK(frames.size() == frames_.size());
    frames_ = frames;
  }

 private:
  std::vector<PageFrame> frames_;
};

}  // namespace explframe::mm
