// Four-level x86-64-style page table (PGD -> PUD -> PMD -> PTE), 48-bit
// virtual addresses, 4 KiB pages.
//
// Table nodes themselves consume physical page frames through a
// FrameClient, because on real Linux the kernel's PTE-page allocations go
// through the very same per-CPU page frame cache the attack manipulates —
// a victim's first fault in a fresh region can consume the planted frame
// for a page-table page instead of the data page (measured by the
// `design-ablations` experiment).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mm/page.hpp"
#include "support/units.hpp"

namespace explframe::vm {

using VirtAddr = std::uint64_t;

inline constexpr std::uint32_t kVaBits = 48;
inline constexpr std::uint32_t kLevelBits = 9;
inline constexpr std::uint32_t kLevels = 4;

/// Page table entry for a 4 KiB page: the frame it maps, kInvalidPfn in
/// an empty slot.
struct Pte {
  mm::Pfn pfn = mm::kInvalidPfn;

  bool operator==(const Pte&) const = default;
};

/// Supplies/reclaims the physical frames backing page-table nodes.
/// `alloc` may return kInvalidPfn (allocation failure is propagated).
struct FrameClient {
  std::function<mm::Pfn()> alloc;
  std::function<void(mm::Pfn)> free;
};

/// 4-level x86-64-shaped page table (9 bits per level, 4 KiB leaves).
/// Node frames are charged through the FrameClient so table pages
/// travel the same allocator path as data pages (`design-ablations`).
class PageTable {
 public:
  /// One table node: the frame charged to it, its occupied slots
  /// (child nodes or installed PTEs) and, in a leaf only, its 512 PTEs.
  struct Node {
    mm::Pfn frame = mm::kInvalidPfn;
    std::uint32_t used = 0;
    std::vector<Pte> ptes;  ///< 512 in a leaf (level 0), empty above.

    bool operator==(const Node&) const = default;
  };
  /// A node's level (kLevels-1 = root, 0 = leaf) and the base virtual
  /// address of the region it maps.
  using NodeKey = std::pair<std::uint32_t, VirtAddr>;
  /// Everything mutable, a plain value: a snapshot copies it and restore
  /// assigns it. The map orders nodes leaves first, root last.
  struct State {
    std::map<NodeKey, Node> nodes;
    std::uint64_t mapped = 0;

    bool operator==(const State&) const = default;
  };

  /// `client` may be null: nodes are then bookkept but not charged frames.
  explicit PageTable(FrameClient client = {});
  /// Returns every node frame, leaves first and the root last.
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Allocate the intermediate table nodes covering vaddr without
  /// installing a PTE. Linux's fault path does this (pte_alloc) *before*
  /// allocating the data page — the ordering matters to the attack, because
  /// a table node allocated mid-fault consumes the per-CPU cache head.
  /// Nodes are charged top-down (PUD, PMD, PTE); returns false at the
  /// first frame that cannot be charged, inserting no node for it.
  bool prepare(VirtAddr vaddr);

  /// Map vaddr (page aligned) to pfn (not kInvalidPfn). Returns false if a
  /// needed table node could not be charged a frame.
  bool map(VirtAddr vaddr, mm::Pfn pfn);

  /// Remove the mapping; returns the pfn that was mapped, if any. Empty
  /// nodes are freed bottom-up (and their frames returned); the root stays.
  std::optional<mm::Pfn> unmap(VirtAddr vaddr);

  /// Lookup without side effects.
  const Pte* find(VirtAddr vaddr) const;

  std::uint64_t mapped_pages() const noexcept { return state_.mapped; }
  /// Live table nodes, the root included.
  std::uint64_t table_nodes() const noexcept { return state_.nodes.size(); }

  /// The table's complete state, for a snapshot.
  const State& state() const noexcept { return state_; }
  /// Reinstate a captured state. Never calls the FrameClient: the node
  /// frames come from `state`, and the page allocator restored alongside
  /// already accounts them as allocated.
  void restore(const State& state) { state_ = state; }

 private:
  FrameClient client_;
  State state_;
};

}  // namespace explframe::vm
