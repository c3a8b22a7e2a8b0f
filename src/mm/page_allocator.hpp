// The zoned page frame allocator (Fig. 2 of the paper): zonelist fallback
// in front, per-CPU page frame caches for order-0 traffic, buddy allocator
// underneath.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mm/gfp.hpp"
#include "mm/page.hpp"
#include "mm/zone.hpp"

namespace explframe::mm {

/// Architecture flavour: decides the zone carving (paper §III lists both).
enum class Arch : std::uint8_t {
  kX86_64,  ///< DMA [0,16M) | DMA32 [16M,4G) | NORMAL [4G,..)
  kX86_32,  ///< DMA [0,16M) | NORMAL [16M,896M) | HIGHMEM [896M,..)
};

/// Machine-level allocator shape: physical memory size, CPU count,
/// architecture zone carving, per-CPU cache tuning and low-memory
/// reservations.
struct AllocatorConfig {
  std::uint64_t total_bytes = 256 * kMiB;
  std::uint32_t num_cpus = 2;
  Arch arch = Arch::kX86_64;
  PcpConfig pcp;
  /// Pages 0..reserved_pages-1 are kept out of the allocator, modelling
  /// firmware/kernel-image reservations at the bottom of ZONE_DMA.
  std::uint64_t reserved_pages = 256;  // first 1 MiB
};

/// Aggregate /proc/vmstat-style counters over all zones and CPUs.
struct VmStats {
  std::uint64_t pgalloc = 0;          ///< Successful allocations (blocks).
  std::uint64_t pgfree = 0;           ///< Frees (blocks).
  std::uint64_t pcp_alloc_hits = 0;   ///< Order-0 allocs served by a pcp.
  std::uint64_t pcp_refills = 0;      ///< Bulk pcp refills from buddy.
  std::uint64_t buddy_direct = 0;     ///< Allocations served by buddy direct.
  std::uint64_t zone_fallbacks = 0;   ///< Served by a non-preferred zone.
  std::uint64_t watermark_skips = 0;  ///< Zone skipped on watermark.
  std::uint64_t failures = 0;         ///< Complete allocation failures.

  bool operator==(const VmStats&) const = default;
};

/// Result of a successful allocation.
struct Allocation {
  Pfn pfn = kInvalidPfn;
  std::uint32_t order = 0;
  std::uint8_t zone_index = 0;
  bool from_pcp = false;
};

/// The zoned physical page allocator: per-zone buddy systems behind
/// per-CPU page frame caches with watermark-gated zone fallback — the
/// Linux allocation path (§III) whose reuse behaviour the attack
/// steers.
class PageAllocator {
 public:
  explicit PageAllocator(const AllocatorConfig& config);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Allocate a 2^order block on behalf of `task` running on `cpu`.
  /// Returns std::nullopt when no zone in the fallback list can satisfy the
  /// request (the simulation's OOM).
  std::optional<Allocation> alloc_pages(std::uint32_t order,
                                        const GfpFlags& gfp, std::uint32_t cpu,
                                        std::int32_t task = -1);

  /// Free a block previously returned by alloc_pages. Order-0 frees enter
  /// the per-CPU page frame cache of `cpu` (the paper's exploited path).
  void free_pages(Pfn pfn, std::uint32_t order, std::uint32_t cpu,
                  bool cold = false);

  // ---- Introspection ----------------------------------------------------
  std::uint32_t num_cpus() const noexcept { return config_.num_cpus; }
  std::uint64_t total_pages() const noexcept { return db_.size(); }
  const PageFrameDatabase& frames() const noexcept { return db_; }
  PageFrameDatabase& frames() noexcept { return db_; }

  std::size_t zone_count() const noexcept { return zones_.size(); }
  Zone& zone(std::size_t i) { return *zones_[i]; }
  const Zone& zone(std::size_t i) const { return *zones_[i]; }
  Zone* zone_of(Pfn pfn);

  /// Fallback order for a zone preference (highest zone first), as indices
  /// into zone(i). Mirrors the x86-64 zonelist.
  std::vector<std::size_t> zonelist(GfpZonePreference pref) const;

  const VmStats& stats() const noexcept { return state_.vmstat; }

  /// Total pages free in buddy lists across zones.
  std::uint64_t global_free_pages() const noexcept;

  /// Consistency check across all zones (tests).
  void verify() const;

  /// The allocator's own mutable counters.
  struct State {
    VmStats vmstat;
    std::uint64_t alloc_seq = 0;  ///< Stamped on every allocated frame.
  };
  /// Snapshot of the allocator's complete mutable state: the page-frame
  /// database, its own State and, per zone, the buddy State and every
  /// CPU's page cache State. Zone layout/watermarks are config-derived and
  /// immutable.
  struct Image {
    std::vector<PageFrame> frames;
    State state;
    std::vector<BuddyAllocator::State> buddies;             ///< Per zone.
    std::vector<std::vector<PerCpuPageCache::State>> pcps;  ///< [zone][cpu].
  };

  /// Capture the full mutable state for a snapshot.
  Image capture_image() const {
    Image image{db_.all_frames(), state_, {}, {}};
    for (const auto& z : zones_) {
      image.buddies.push_back(z->buddy().state());
      image.pcps.emplace_back();
      for (std::uint32_t c = 0; c < z->num_cpus(); ++c)
        image.pcps.back().push_back(z->pcp(c).state());
    }
    return image;
  }

  /// Restore a previously captured image exactly (same configuration).
  void restore_image(const Image& image) {
    EXPLFRAME_CHECK(image.buddies.size() == zones_.size());
    db_.restore_frames(image.frames);
    state_ = image.state;
    for (std::size_t i = 0; i < zones_.size(); ++i) {
      zones_[i]->buddy().restore(image.buddies[i]);
      for (std::uint32_t c = 0; c < zones_[i]->num_cpus(); ++c)
        zones_[i]->pcp(c).restore(image.pcps[i][c]);
    }
  }

 private:
  Pfn rmqueue_pcp(Zone& zone, std::uint32_t cpu);
  Pfn rmqueue_buddy(Zone& zone, std::uint32_t order);
  bool watermark_ok(const Zone& zone, std::uint32_t order) const;
  void drain_pcp(Zone& zone, std::uint32_t cpu);
  void finish_alloc(Allocation& alloc, std::uint32_t cpu, std::int32_t task);

  AllocatorConfig config_;
  PageFrameDatabase db_;
  std::vector<std::unique_ptr<Zone>> zones_;
  State state_;
};

}  // namespace explframe::mm
