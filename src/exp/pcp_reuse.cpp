// §V: "with a probability of almost 1, if the process requests for a few
// pages, the recently deallocated page frames will be reallocated".
// Measured: the probability that a released frame is handed to the next
// allocation on the same CPU, against request size, intervening noise on
// the same or another CPU, and the allocating CPU.
#include <string>
#include <vector>

#include "exp/bodies.hpp"
#include "kernel/noise.hpp"

namespace explframe::exp {

namespace {

constexpr std::uint32_t kTrials = 200;

/// Whether the planted frame came back at all, and as the first page.
struct TrialResult {
  bool received = false;
  bool first = false;
};

/// Task A touches and releases one frame; `noise_ops` noise operations run
/// on `noise_cpu`; then task B on `alloc_cpu` touches `request_pages` pages.
TrialResult run_trial(std::uint64_t seed, std::uint32_t request_pages,
                      std::uint32_t noise_ops, std::uint32_t noise_cpu,
                      std::uint32_t alloc_cpu) {
  kernel::System sys(small_machine(scenario::WeakCellProfile::kQuiet, seed));
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

Table by_request_size() {
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
  return t;
}

Table by_noise() {
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
  return t;
}

Table by_cpu() {
  Table t({"allocating CPU", "P(frame received)"});
  for (const std::uint32_t cpu : {0u, 1u}) {
    std::size_t received = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i)
      received += run_trial(3000 + i, 4, 0, 1, cpu).received;
    t.row(cpu == 0 ? "same (cpu 0)" : "other (cpu 1)",
          rate_cell_wide(received, kTrials));
  }
  return t;
}

}  // namespace

std::vector<Section> pcp_reuse() {
  const std::string per_row = std::to_string(kTrials) + " trials/row";
  std::vector<Section> out;
  out.push_back({"(a) Reuse probability vs victim request size (same CPU, "
                 "no noise, " + per_row + ")",
                 by_request_size(), ""});
  out.push_back({"(b) Reuse probability vs intervening noise operations "
                 "(request = 4 pages, " + per_row + ")",
                 by_noise(), ""});
  out.push_back({"(c) Same-CPU vs cross-CPU allocation (request = 4 pages, "
                 "no noise)",
                 by_cpu(),
                 "Paper claim: reuse probability ~ 1 for small same-CPU "
                 "requests; requires the releaser's CPU cache to stay "
                 "undisturbed."});
  return out;
}

}  // namespace explframe::exp
