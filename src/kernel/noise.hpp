// Background allocation noise: a synthetic process that mmaps, touches and
// munmaps small regions at random, churning the per-CPU page frame cache.
// Used to measure how fragile the planted-frame window is (`pcp-reuse`,
// `frame-steering`) and
// to model the "attacker went to sleep" contention the paper warns about.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/system.hpp"
#include "support/rng.hpp"

namespace explframe::kernel {

/// Shape of the background allocator noise a co-tenant workload makes:
/// region sizes, alloc/release bias, live-region cap.
struct NoiseConfig {
  std::uint32_t min_pages = 1;
  std::uint32_t max_pages = 8;
  /// Probability an op is an allocation (otherwise a release, if possible).
  double alloc_bias = 0.5;
  /// Cap on simultaneously live regions.
  std::uint32_t max_live_regions = 64;
};

/// Deterministic co-tenant memory churn: a seeded stream of mmap+touch /
/// munmap operations that stirs the page frame caches the way a noisy
/// neighbour would, without breaking replay.
class NoiseWorkload {
 public:
  NoiseWorkload(System& system, Task& task, const NoiseConfig& config,
                std::uint64_t seed)
      : system_(&system), task_(&task), config_(config), rng_(seed) {}

  /// Perform one mmap+touch or munmap operation.
  void step();
  void run(std::uint32_t ops);

  std::uint64_t pages_allocated() const noexcept { return pages_allocated_; }
  std::uint64_t pages_released() const noexcept { return pages_released_; }

 private:
  /// One live mmap'd region (base address + length in pages).
  struct Region {
    vm::VirtAddr va;
    std::uint32_t pages;
  };

  System* system_;
  Task* task_;
  NoiseConfig config_;
  Rng rng_;
  std::vector<Region> live_;
  std::uint64_t pages_allocated_ = 0;
  std::uint64_t pages_released_ = 0;
};

}  // namespace explframe::kernel
