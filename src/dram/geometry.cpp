#include "dram/geometry.hpp"

#include "support/check.hpp"

namespace explframe::dram {

Geometry Geometry::with_capacity(std::uint64_t bytes) {
  Geometry g;
  EXPLFRAME_CHECK_MSG((bytes & (bytes - 1)) == 0,
                      "DRAM capacity must be a power of two");
  const std::uint64_t rows = bytes / (static_cast<std::uint64_t>(g.channels) *
                                      g.ranks * g.banks * g.row_bytes);
  EXPLFRAME_CHECK_MSG(rows >= 64, "capacity too small for geometry");
  // Keep rows-per-bank <= 64Ki (DDR3 row-address width); add ranks beyond.
  std::uint64_t rpb = rows;
  std::uint32_t ranks = 1;
  while (rpb > 65536) {
    rpb /= 2;
    ranks *= 2;
  }
  g.rows_per_bank = static_cast<std::uint32_t>(rpb);
  g.ranks = ranks;
  EXPLFRAME_CHECK(g.total_bytes() == bytes);
  return g;
}

}  // namespace explframe::dram
