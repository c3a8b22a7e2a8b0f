// The experiment bodies behind the registry in experiment.cpp, one file
// each under src/exp/, and the machine most of them run on. Private to
// src/exp/: callers go through exp::experiments().
#pragma once

#include <cstdint>
#include <vector>

#include "exp/experiment.hpp"
#include "kernel/system.hpp"
#include "scenario/scenario.hpp"

namespace explframe::exp {

/// The small machine the allocator and templating experiments run on:
/// 64 MiB of DDR3, two CPUs, the named weak-cell preset.
kernel::SystemConfig small_machine(scenario::WeakCellProfile profile,
                                   std::uint64_t seed);

std::vector<Section> buddy_trace();
std::vector<Section> zone_carving();
std::vector<Section> pcp_reuse();
std::vector<Section> frame_steering();
std::vector<Section> rowhammer();
std::vector<Section> spray_baseline();
std::vector<Section> pfa_complexity();
std::vector<Section> fault_techniques();
std::vector<Section> templating_strategies();
std::vector<Section> design_ablations();

}  // namespace explframe::exp
