// EXP-T1 — Page-frame-cache reuse probability.
//
// The paper (§V): "with a probability of almost 1, if the process requests
// for a few pages, the recently deallocated page frames will be reallocated".
// Measured here:
//   (a) P(released frame is handed to the next allocation on the same CPU)
//       as a function of the request size;
//   (b) how that probability decays with intervening allocation noise on
//       the same CPU (and that cross-CPU noise does not affect it);
//   (c) same-CPU vs cross-CPU reuse.
#include <iostream>

#include "common.hpp"
#include "kernel/noise.hpp"
#include "support/table.hpp"

using namespace explframe;
using namespace explframe::bench;

namespace {

constexpr std::uint32_t kTrials = 200;

/// One trial: task A touches+releases one frame; then `noise_ops` noise
/// operations run on `noise_cpu`; then task B on `alloc_cpu` touches
/// `request_pages` pages. Returns (planted received at all, received as the
/// first-touched page).
struct TrialResult {
  bool received = false;
  bool first = false;
};

TrialResult run_trial(std::uint64_t seed, std::uint32_t request_pages,
                      std::uint32_t noise_ops, std::uint32_t noise_cpu,
                      std::uint32_t alloc_cpu) {
  kernel::System sys(quiet_system(seed));
  kernel::Task& a = sys.spawn("releaser", 0);
  kernel::Task& b = sys.spawn("allocator", alloc_cpu);
  kernel::Task& n = sys.spawn("noise", noise_cpu);
  kernel::NoiseWorkload noise(sys, n, {}, seed ^ 0x1234);
  // Warm all tasks so page-table nodes do not interfere.
  for (kernel::Task* t : {&a, &b, &n}) {
    const vm::VirtAddr w = sys.sys_mmap(*t, kPageSize);
    const std::uint8_t wb = 1;
    sys.mem_write(*t, w, {&wb, 1});
  }

  const vm::VirtAddr va = sys.sys_mmap(a, 4 * kPageSize);
  for (int p = 0; p < 4; ++p) {
    const std::uint8_t byte = 0xAB;
    sys.mem_write(a, va + p * kPageSize, {&byte, 1});
  }
  const mm::Pfn planted = sys.translate(a, va + kPageSize);
  sys.sys_munmap(a, va + kPageSize, kPageSize);

  noise.run(noise_ops);

  const vm::VirtAddr vb = sys.sys_mmap(b, request_pages * kPageSize);
  TrialResult r;
  for (std::uint32_t p = 0; p < request_pages; ++p) {
    const std::uint8_t byte = 0xCD;
    sys.mem_write(b, vb + p * kPageSize, {&byte, 1});
    if (sys.translate(b, vb + p * kPageSize) == planted) {
      r.received = true;
      if (p == 0) r.first = true;
    }
  }
  return r;
}

void sweep_request_size() {
  std::cout << "\n(a) reuse probability vs victim request size (same CPU, "
               "no noise, "
            << kTrials << " trials/row):\n";
  Table t({"request pages", "P(frame received)", "P(received as 1st page)"});
  for (const std::uint32_t pages : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    std::size_t received = 0, first = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i) {
      const auto r = run_trial(1000 + i, pages, 0, 1, 0);
      received += r.received;
      first += r.first;
    }
    t.row(pages, rate_cell_wide(received, kTrials),
          rate_cell_wide(first, kTrials));
  }
  t.print(std::cout);
}

void sweep_noise() {
  std::cout << "\n(b) reuse probability vs intervening noise operations "
               "(request = 4 pages, "
            << kTrials << " trials/row):\n";
  Table t({"noise ops", "noise CPU", "P(frame received)"});
  for (const std::uint32_t ops : {0u, 1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    for (const std::uint32_t noise_cpu : {0u, 1u}) {
      std::size_t received = 0;
      for (std::uint32_t i = 0; i < kTrials; ++i)
        received += run_trial(2000 + i, 4, ops, noise_cpu, 0).received;
      t.row(ops, noise_cpu == 0 ? "same" : "other",
            rate_cell_wide(received, kTrials));
    }
  }
  t.print(std::cout);
}

void same_vs_cross_cpu() {
  std::cout << "\n(c) same-CPU vs cross-CPU allocation (request = 4 pages, "
               "no noise):\n";
  Table t({"allocating CPU", "P(frame received)"});
  for (const std::uint32_t cpu : {0u, 1u}) {
    std::size_t received = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i)
      received += run_trial(3000 + i, 4, 0, 1, cpu).received;
    t.row(cpu == 0 ? "same (cpu 0)" : "other (cpu 1)",
          rate_cell_wide(received, kTrials));
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  print_banner(std::cout,
               "EXP-T1: per-CPU page frame cache reuse probability (SV)");
  sweep_request_size();
  sweep_noise();
  same_vs_cross_cpu();
  std::cout << "\npaper claim: reuse probability ~ 1 for small same-CPU "
               "requests; requires the releaser's CPU cache to stay "
               "undisturbed.\n";
  return 0;
}
