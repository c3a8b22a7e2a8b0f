// Fig. 2: the zone carving for several machine sizes, the zonelist fallback
// order per allocation class, fallback under memory pressure, and the
// per-CPU page frame cache kept for each CPU inside each zone.
#include <string>
#include <vector>

#include "exp/bodies.hpp"
#include "mm/page_allocator.hpp"

namespace explframe::exp {

using namespace explframe::mm;

namespace {

Table carving() {
  Table t({"machine", "zone", "start", "end", "pages", "wmark min/low/high"});
  const auto add_rows = [&](std::uint64_t mib, Arch arch, const char* label) {
    AllocatorConfig cfg;
    cfg.total_bytes = mib * kMiB;
    cfg.arch = arch;
    PageAllocator alloc(cfg);
    for (std::size_t z = 0; z < alloc.zone_count(); ++z) {
      const Zone& zone = alloc.zone(z);
      const auto& w = zone.watermarks();
      t.row(std::to_string(mib) + " MiB " + label, zone.name(),
            std::to_string(zone.start_pfn() * kPageSize / kMiB) + " MiB",
            std::to_string(zone.end_pfn() * kPageSize / kMiB) + " MiB",
            zone.pages(),
            std::to_string(w.min) + "/" + std::to_string(w.low) + "/" +
                std::to_string(w.high));
    }
  };
  for (const std::uint64_t mib : {64ull, 512ull, 8192ull})
    add_rows(mib, Arch::kX86_64, "x86-64");
  add_rows(2048, Arch::kX86_32, "x86-32");
  return t;
}

Table zonelists() {
  AllocatorConfig cfg;
  cfg.total_bytes = 8 * kGiB;
  PageAllocator alloc(cfg);
  Table t({"request class", "fallback order"});
  const auto render = [&](GfpZonePreference pref) {
    std::string s;
    for (const auto zi : alloc.zonelist(pref)) {
      if (!s.empty()) s += " -> ";
      s += alloc.zone(zi).name();
    }
    return s;
  };
  t.row("GFP_KERNEL", render(GfpZonePreference::kNormal));
  t.row("GFP_HIGHUSER", render(GfpZonePreference::kHighUser));
  t.row("GFP_DMA32", render(GfpZonePreference::kDma32));
  t.row("GFP_DMA", render(GfpZonePreference::kDma));
  return t;
}

Table fallback_under_pressure() {
  AllocatorConfig cfg;
  cfg.total_bytes = 64 * kMiB;
  PageAllocator alloc(cfg);
  Table t({"phase", "allocs served", "zone", "fallbacks", "watermark skips"});
  std::uint64_t served_dma32 = 0, served_dma = 0;
  for (;;) {
    const auto a = alloc.alloc_pages(0, GfpFlags::user(), 0, 1);
    if (!a) break;
    if (alloc.zone(a->zone_index).type() == ZoneType::kDma32) {
      ++served_dma32;
    } else {
      ++served_dma;
    }
  }
  t.row("preferred zone", served_dma32, "DMA32", std::size_t{0},
        std::size_t{0});
  t.row("after fallback", served_dma, "DMA", alloc.stats().zone_fallbacks,
        alloc.stats().watermark_skips);
  return t;
}

Table per_cpu_caches() {
  AllocatorConfig cfg;
  cfg.total_bytes = 64 * kMiB;
  cfg.num_cpus = 4;
  PageAllocator alloc(cfg);
  // Touch each CPU's cache once.
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    const auto a = alloc.alloc_pages(0, GfpFlags::user(), cpu, 1);
    if (a) alloc.free_pages(a->pfn, 0, cpu);
  }
  Table t({"zone", "cpu", "cached pages", "batch", "high"});
  for (std::size_t z = 0; z < alloc.zone_count(); ++z) {
    Zone& zone = alloc.zone(z);
    for (std::uint32_t cpu = 0; cpu < zone.num_cpus(); ++cpu) {
      t.row(zone.name(), cpu, std::size_t{zone.pcp(cpu).count()},
            std::size_t{zone.pcp(cpu).config().batch},
            std::size_t{zone.pcp(cpu).config().high});
    }
  }
  return t;
}

}  // namespace

std::vector<Section> zone_carving() {
  std::vector<Section> out;
  out.push_back({"Zone carving by machine size and architecture (SIII)",
                 carving(), ""});
  out.push_back({"Zonelist fallback order per allocation class", zonelists(),
                 ""});
  out.push_back({"Zone fallback under pressure (order-0 user allocations on "
                 "a 64 MiB machine)",
                 fallback_under_pressure(), ""});
  out.push_back({"Per-CPU page frame cache per (zone, cpu)", per_cpu_caches(),
                 "\"The page frame cache is maintained for each CPU inside "
                 "each zone\" (paper SV)."});
  return out;
}

}  // namespace explframe::exp
