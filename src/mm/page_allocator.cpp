#include "mm/page_allocator.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace explframe::mm {

namespace {
constexpr std::uint64_t kDmaLimitPages = (16 * kMiB) / kPageSize;
constexpr std::uint64_t kDma32LimitPages = (4 * kGiB) / kPageSize;
constexpr std::uint64_t kLowmemLimitPages = (896 * kMiB) / kPageSize;
}  // namespace

PageAllocator::PageAllocator(const AllocatorConfig& config)
    : config_(config), db_(config.total_bytes / kPageSize) {
  EXPLFRAME_CHECK(config.num_cpus > 0);
  EXPLFRAME_CHECK(config.total_bytes % kPageSize == 0);
  const std::uint64_t total = db_.size();
  EXPLFRAME_CHECK_MSG(config.reserved_pages < total,
                      "reservation exceeds memory");

  // Zone carving per §III of the paper. Zones absent on small machines are
  // simply not created, as on real hardware.
  //   x86-64: DMA [0,16M) | DMA32 [16M,4G)   | NORMAL  [4G,..)
  //   x86-32: DMA [0,16M) | NORMAL [16M,896M) | HIGHMEM [896M,..)
  struct Span {
    ZoneType type;
    Pfn start;
    std::uint64_t pages;
  };
  std::vector<Span> spans;
  const Pfn dma_start = config.reserved_pages;
  const Pfn dma_end = std::min(total, kDmaLimitPages);
  if (dma_end > dma_start)
    spans.push_back({ZoneType::kDma, dma_start, dma_end - dma_start});
  if (config.arch == Arch::kX86_64) {
    if (total > kDmaLimitPages) {
      const Pfn d32_end = std::min(total, kDma32LimitPages);
      spans.push_back(
          {ZoneType::kDma32, kDmaLimitPages, d32_end - kDmaLimitPages});
    }
    if (total > kDma32LimitPages)
      spans.push_back(
          {ZoneType::kNormal, kDma32LimitPages, total - kDma32LimitPages});
  } else {
    if (total > kDmaLimitPages) {
      const Pfn low_end = std::min(total, kLowmemLimitPages);
      spans.push_back(
          {ZoneType::kNormal, kDmaLimitPages, low_end - kDmaLimitPages});
    }
    if (total > kLowmemLimitPages)
      spans.push_back({ZoneType::kHighMem, kLowmemLimitPages,
                       total - kLowmemLimitPages});
  }
  EXPLFRAME_CHECK(!spans.empty());

  std::uint8_t index = 0;
  for (const Span& s : spans) {
    zones_.push_back(std::make_unique<Zone>(s.type, index, db_, s.start,
                                            s.pages, config.num_cpus,
                                            config.pcp));
    ++index;
  }
}

Zone* PageAllocator::zone_of(Pfn pfn) {
  for (auto& z : zones_)
    if (z->contains(pfn)) return z.get();
  return nullptr;
}

std::vector<std::size_t> PageAllocator::zonelist(
    GfpZonePreference pref) const {
  // Highest permissible zone first, falling back downward.
  ZoneType highest = ZoneType::kNormal;
  switch (pref) {
    case GfpZonePreference::kNormal:
      highest = ZoneType::kNormal;
      break;
    case GfpZonePreference::kHighUser:
      highest = ZoneType::kHighMem;
      break;
    case GfpZonePreference::kDma32:
      highest = ZoneType::kDma32;
      break;
    case GfpZonePreference::kDma:
      highest = ZoneType::kDma;
      break;
  }
  std::vector<std::size_t> order;
  for (std::size_t i = zones_.size(); i-- > 0;) {
    if (static_cast<std::uint8_t>(zones_[i]->type()) <=
        static_cast<std::uint8_t>(highest)) {
      order.push_back(i);
    }
  }
  return order;
}

bool PageAllocator::watermark_ok(const Zone& zone, std::uint32_t order) const {
  const std::uint64_t need = Pfn{1} << order;
  return zone.free_pages() >= need + zone.watermarks().min;
}

Pfn PageAllocator::rmqueue_pcp(Zone& zone, std::uint32_t cpu) {
  PerCpuPageCache& cache = zone.pcp(cpu);
  if (cache.empty()) {
    // Bulk-refill from buddy (rmqueue_bulk): up to `batch` order-0 blocks,
    // never draining the zone below its min watermark.
    const std::uint64_t reserve = zone.watermarks().min;
    std::vector<Pfn> refill;
    refill.reserve(cache.config().batch);
    for (std::uint32_t i = 0; i < cache.config().batch; ++i) {
      if (zone.free_pages() <= reserve) break;
      const Pfn p = zone.buddy().alloc_block(0);
      if (p == kInvalidPfn) break;
      db_.at(p).state = PageState::kPcp;
      refill.push_back(p);
    }
    if (refill.empty()) return kInvalidPfn;
    cache.refill(refill);
    ++state_.vmstat.pcp_refills;
  }
  return cache.take();
}

Pfn PageAllocator::rmqueue_buddy(Zone& zone, std::uint32_t order) {
  return zone.buddy().alloc_block(order);
}

void PageAllocator::finish_alloc(Allocation& alloc, std::uint32_t cpu,
                                 std::int32_t task) {
  (void)cpu;
  ++state_.alloc_seq;
  const Pfn n = Pfn{1} << alloc.order;
  for (Pfn i = 0; i < n; ++i) {
    PageFrame& f = db_.at(alloc.pfn + i);
    f.state = PageState::kAllocated;
    f.owner_task = task;
    f.alloc_seq = state_.alloc_seq;
  }
  ++state_.vmstat.pgalloc;
}

std::optional<Allocation> PageAllocator::alloc_pages(std::uint32_t order,
                                                     const GfpFlags& gfp,
                                                     std::uint32_t cpu,
                                                     std::int32_t task) {
  EXPLFRAME_CHECK(order < kMaxOrder);
  EXPLFRAME_CHECK(cpu < config_.num_cpus);
  const auto list = zonelist(gfp.zone);
  bool preferred = true;
  for (const std::size_t zi : list) {
    Zone& zone = *zones_[zi];
    if (zone.pages() == 0) {
      preferred = false;
      continue;
    }
    // Order-0 requests go through the per-CPU page frame cache. The cache
    // itself may hold pages even when the zone is below its watermark.
    if (order == 0) {
      const bool cache_has_pages = !zone.pcp(cpu).empty();
      if (!cache_has_pages && !watermark_ok(zone, order)) {
        ++state_.vmstat.watermark_skips;
        preferred = false;
        continue;
      }
      const Pfn pfn = rmqueue_pcp(zone, cpu);
      if (pfn != kInvalidPfn) {
        Allocation a{pfn, 0, zone.index(), true};
        finish_alloc(a, cpu, task);
        ++state_.vmstat.pcp_alloc_hits;
        if (!preferred) ++state_.vmstat.zone_fallbacks;
        return a;
      }
    } else {
      if (!watermark_ok(zone, order)) {
        ++state_.vmstat.watermark_skips;
        preferred = false;
        continue;
      }
      const Pfn pfn = rmqueue_buddy(zone, order);
      if (pfn != kInvalidPfn) {
        Allocation a{pfn, order, zone.index(), false};
        finish_alloc(a, cpu, task);
        ++state_.vmstat.buddy_direct;
        if (!preferred) ++state_.vmstat.zone_fallbacks;
        return a;
      }
    }
    preferred = false;
  }
  ++state_.vmstat.failures;
  return std::nullopt;
}

void PageAllocator::drain_pcp(Zone& zone, std::uint32_t cpu) {
  PerCpuPageCache& cache = zone.pcp(cpu);
  for (const Pfn p : cache.pop_cold(cache.config().batch))
    zone.buddy().free_block(p, 0);
}

void PageAllocator::free_pages(Pfn pfn, std::uint32_t order, std::uint32_t cpu,
                               bool cold) {
  EXPLFRAME_CHECK(order < kMaxOrder);
  EXPLFRAME_CHECK(cpu < config_.num_cpus);
  Zone* zone = zone_of(pfn);
  EXPLFRAME_CHECK_MSG(zone != nullptr, "free of unmanaged pfn");
  ++state_.vmstat.pgfree;
  if (order == 0) {
    PageFrame& f = db_.at(pfn);
    EXPLFRAME_CHECK_MSG(f.state == PageState::kAllocated,
                        "free of non-allocated page");
    f.state = PageState::kPcp;
    f.owner_task = -1;
    if (zone->pcp(cpu).put(pfn, cold)) drain_pcp(*zone, cpu);
    return;
  }
  for (Pfn i = 0; i < (Pfn{1} << order); ++i) db_.at(pfn + i).owner_task = -1;
  zone->buddy().free_block(pfn, order);
}

std::uint64_t PageAllocator::global_free_pages() const noexcept {
  std::uint64_t total = 0;
  for (const auto& z : zones_) total += z->free_pages();
  return total;
}

void PageAllocator::verify() const {
  for (const auto& z : zones_) {
    z->buddy().verify();
    // Every pcp-resident page must be marked kPcp and belong to the zone.
    for (std::uint32_t c = 0; c < z->num_cpus(); ++c) {
      for (const Pfn p : z->pcp(c).peek()) {
        EXPLFRAME_CHECK(z->contains(p));
        EXPLFRAME_CHECK(db_.at(p).state == PageState::kPcp);
      }
    }
  }
}

}  // namespace explframe::mm
