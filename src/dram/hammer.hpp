// The physical-address hammer loop (flush+read alternation) over
// DramDevice's batched burst path: double- and single-sided sessions that
// report the flips they induced. The attacker's row-conflict timing channel
// lives in the attack layer (attack/templating.cpp), on the same burst path
// through System::hammer_burst.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/dram_device.hpp"

namespace explframe::dram {

/// Outcome of one (single- or double-sided) hammer run: flips induced,
/// refresh/TRR interventions seen, and simulated time spent.
struct HammerResult {
  /// False: the requested aggressor rows do not exist (e.g. a neighbour of
  /// an edge row) and nothing was hammered. Callers must not read an
  /// invalid result as "hammered, no flips".
  bool valid = true;
  std::uint64_t iterations = 0;  ///< Alternation rounds executed.
  SimTime elapsed = 0;           ///< Simulated time the loop took.
  std::vector<FlipEvent> flips;  ///< Flips induced during this loop.
};

/// Drives hammering sessions against a DramDevice. All methods operate on
/// physical addresses; callers in the attack layer obtain them through the
/// simulated MMU (i.e. by accessing their own virtual memory).
class HammerEngine {
 public:
  explicit HammerEngine(DramDevice& device) : device_(&device) {}

  /// One iteration = one uncached access of every aggressor in order
  /// (the classic `loop { read a; read b; clflush a; clflush b; }`).
  /// Aggressors in the same bank keep evicting each other's row buffer, so
  /// each access is a row activation. Runs on the device's batched
  /// hammer_burst path (bit-identical to per-access, orders of magnitude
  /// faster).
  HammerResult hammer(std::span<const PhysAddr> aggressors,
                      std::uint64_t iterations);

  /// Double-sided hammer of the rows adjacent to `victim_row_addr`.
  /// Returns valid=false (iterations=0) if either neighbour row is out of
  /// range.
  HammerResult hammer_double_sided(PhysAddr victim_row_addr,
                                   std::uint64_t iterations);

  /// Single-sided hammer: alternates `aggressor` with a same-bank row far
  /// enough away (8 rows) that its own neighbourhood does not overlap the
  /// target's. Returns valid=false if no such partner row exists.
  HammerResult hammer_single_sided(PhysAddr aggressor,
                                   std::uint64_t iterations);

 private:
  DramDevice* device_;
};

}  // namespace explframe::dram
