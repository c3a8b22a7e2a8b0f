#include "dram/hammer.hpp"

namespace explframe::dram {

HammerResult HammerEngine::hammer(std::span<const PhysAddr> aggressors,
                                  std::uint64_t iterations) {
  HammerResult result;
  if (aggressors.empty()) return result;
  const SimTime start = device_->now();
  device_->hammer_burst(aggressors, iterations);
  result.iterations = iterations;
  result.elapsed = device_->now() - start;
  result.flips = device_->drain_flips();
  return result;
}

HammerResult HammerEngine::hammer_double_sided(PhysAddr victim_row_addr,
                                               std::uint64_t iterations) {
  const AddressMapping& map = device_->mapping();
  PhysAddr above = 0;
  PhysAddr below = 0;
  if (!map.neighbor_row_addr(victim_row_addr, -1, 0, above) ||
      !map.neighbor_row_addr(victim_row_addr, +1, 0, below)) {
    HammerResult skipped;
    skipped.valid = false;
    return skipped;
  }
  const PhysAddr pair[2] = {above, below};
  return hammer(pair, iterations);
}

HammerResult HammerEngine::hammer_single_sided(PhysAddr aggressor,
                                               std::uint64_t iterations) {
  const AddressMapping& map = device_->mapping();
  PhysAddr partner = 0;
  if (!map.neighbor_row_addr(aggressor, +8, 0, partner) &&
      !map.neighbor_row_addr(aggressor, -8, 0, partner)) {
    HammerResult skipped;
    skipped.valid = false;
    return skipped;
  }
  const PhysAddr pair[2] = {aggressor, partner};
  return hammer(pair, iterations);
}

}  // namespace explframe::dram
