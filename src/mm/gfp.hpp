// Allocation modifier flags — the subset of Linux GFP semantics the
// simulation distinguishes.
#pragma once

#include <cstdint>

namespace explframe::mm {

/// Zone fallback chain an allocation walks, mirroring Linux GFP zone
/// modifiers.
enum class GfpZonePreference : std::uint8_t {
  kNormal,    ///< GFP_KERNEL: NORMAL -> (DMA32) -> DMA; never HIGHMEM.
  kHighUser,  ///< GFP_HIGHUSER: user pages; on 32-bit starts at HIGHMEM,
              ///< on 64-bit identical to kNormal (no HIGHMEM zone).
  kDma32,     ///< GFP_DMA32: DMA32 -> DMA.
  kDma,       ///< GFP_DMA: DMA only.
};

/// Allocation context flags — the subset of Linux gfp_t the simulation
/// distinguishes: only the zone preference.
struct GfpFlags {
  GfpZonePreference zone = GfpZonePreference::kNormal;

  static GfpFlags kernel() { return {}; }
  static GfpFlags user() { return {GfpZonePreference::kHighUser}; }
};

}  // namespace explframe::mm
