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

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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

/// Page table entry for a mapped 4 KiB page.
struct Pte {
  mm::Pfn pfn = mm::kInvalidPfn;
  bool writable = true;
  bool accessed = false;
  bool dirty = false;
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
  /// `client` may be null: nodes are then bookkept but not charged frames.
  explicit PageTable(FrameClient client = {});
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Allocate the intermediate table nodes covering vaddr without
  /// installing a PTE. Linux's fault path does this (pte_alloc) *before*
  /// allocating the data page — the ordering matters to the attack, because
  /// a table node allocated mid-fault consumes the per-CPU cache head.
  bool prepare(VirtAddr vaddr);

  /// Map vaddr (page aligned) to pfn. Returns false if a needed table node
  /// could not be charged a frame.
  bool map(VirtAddr vaddr, mm::Pfn pfn, bool writable = true);

  /// Remove the mapping; returns the pfn that was mapped, if any. Empty
  /// intermediate nodes are freed (and their frames returned).
  std::optional<mm::Pfn> unmap(VirtAddr vaddr);

  /// Lookup without side effects.
  const Pte* find(VirtAddr vaddr) const;
  Pte* find(VirtAddr vaddr);

  std::uint64_t mapped_pages() const noexcept { return mapped_; }
  std::uint64_t table_nodes() const noexcept { return nodes_; }

  /// Walk all mappings in ascending vaddr order.
  void for_each(const std::function<void(VirtAddr, const Pte&)>& fn) const;

  /// One table node in a snapshot: its level (kLevels-1 = root, 0 = leaf),
  /// the base virtual address of the region it covers, and the physical
  /// frame charged to it.
  struct NodeImage {
    std::uint32_t level = 0;
    VirtAddr base = 0;
    mm::Pfn frame = mm::kInvalidPfn;
  };
  /// Complete structural snapshot: every node in pre-order (parents before
  /// children, front() = root) plus every installed PTE in vaddr order.
  struct TableImage {
    std::vector<NodeImage> nodes;
    std::vector<std::pair<VirtAddr, Pte>> ptes;
  };

  /// Capture the table structure and mappings for a snapshot.
  TableImage capture_image() const;
  /// Rebuild the table from a captured image. Never calls the FrameClient:
  /// node frames come from the image, and the page allocator restored
  /// alongside already accounts those frames as allocated. (Plain node
  /// destruction frees no frames either — only unmap/release do — so
  /// dropping the current tree leaves the allocator untouched.)
  void restore_image(const TableImage& image);

 private:
  struct Node;
  struct Entry;

  static std::uint32_t index_at(VirtAddr vaddr, std::uint32_t level) noexcept;
  Node* ensure_child(Node& parent, std::uint32_t slot);
  void release_node(Node* node);
  void for_each_rec(const Node& node, std::uint32_t level, VirtAddr base,
                    const std::function<void(VirtAddr, const Pte&)>& fn) const;
  void capture_nodes(const Node& node, std::uint32_t level, VirtAddr base,
                     std::vector<NodeImage>* out) const;

  FrameClient client_;
  std::unique_ptr<Node> root_;
  std::uint64_t mapped_ = 0;
  std::uint64_t nodes_ = 0;
};

}  // namespace explframe::vm
