// Per-CPU page frame cache — Linux's `struct per_cpu_pages` (pcp lists).
//
// This is the mechanism the paper exploits (§V): order-0 frees from a CPU go
// to the *head* of that CPU's cache; the next order-0 allocation on the same
// CPU is served from the head. A frame munmap'ed by the attacker is therefore
// handed, with probability ~1, to the next small allocation on that CPU —
// i.e. to the victim.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mm/page.hpp"

namespace explframe::mm {

/// Tuning of one per-CPU page frame cache (Linux per_cpu_pages).
struct PcpConfig {
  /// Drain back to the buddy allocator when count exceeds this
  /// (Linux: zone-size dependent; 186 is a typical x86-64 desktop value).
  std::uint32_t high = 186;
  /// Bulk transfer size for refill and drain (Linux default 31).
  std::uint32_t batch = 31;
  /// LIFO (Linux behaviour): allocate hottest = most recently freed first.
  /// Setting this false gives FIFO, used by the `design-ablations` experiment.
  bool lifo = true;

  bool operator==(const PcpConfig&) const = default;
};

/// Activity counters of one per-CPU cache.
struct PcpStats {
  std::uint64_t alloc_hits = 0;    ///< Served from the cache.
  std::uint64_t refills = 0;       ///< Bulk refills from buddy.
  std::uint64_t frees = 0;         ///< Frames pushed into the cache.
  std::uint64_t drains = 0;        ///< Bulk drains back to buddy.
  std::uint64_t drained_pages = 0;

  bool operator==(const PcpStats&) const = default;
};

/// The cache itself: a deque of pfns. Hot end = front.
class PerCpuPageCache {
 public:
  explicit PerCpuPageCache(const PcpConfig& config) : config_(config) {}

  bool empty() const noexcept { return state_.pages.empty(); }
  std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(state_.pages.size());
  }
  const PcpConfig& config() const noexcept { return config_; }

  /// Take one frame from the front: the hot end in LIFO mode, the oldest
  /// entry in FIFO mode. Caller must check !empty().
  Pfn take();

  /// Insert one freed frame (hot end unless cold). Returns true if the
  /// cache is now over `high` and the caller must drain.
  bool put(Pfn pfn, bool cold = false);

  /// Pop up to `n` frames from the cold end (for draining back to buddy).
  std::vector<Pfn> pop_cold(std::uint32_t n);

  /// Push frames refilled from the buddy allocator onto the cold end, so a
  /// frame freed by a process stays hotter than bulk refills.
  void refill(const std::vector<Pfn>& pfns);

  /// Non-destructive view, hot end first (experiment ground truth).
  std::vector<Pfn> peek() const;

  PcpStats& stats() noexcept { return state_.stats; }
  const PcpStats& stats() const noexcept { return state_.stats; }

  /// The cache's mutable state (config is immutable); a snapshot copies
  /// it whole.
  struct State {
    std::deque<Pfn> pages;  ///< Hot end = front.
    PcpStats stats;
  };
  const State& state() const noexcept { return state_; }
  /// Restore a previously captured state exactly.
  void restore(const State& state) { state_ = state; }

 private:
  PcpConfig config_;
  State state_;
};

}  // namespace explframe::mm
