// EXP-A1 — Ablations of the design choices DESIGN.md calls out.
//
//   (a) pcp list policy: LIFO (Linux) vs FIFO — the exploit needs LIFO;
//   (b) pcp `high` watermark: how long a planted frame survives cache
//       pressure before being drained back to buddy;
//   (c) page-table charging: a cold victim's first fault spends the planted
//       frame on a PTE page instead of the data page;
//   (d) zero-on-allocation: without it, released attacker data leaks into
//       the victim (and vice versa).
#include <iostream>

#include "attack/victim.hpp"
#include "common.hpp"
#include "kernel/noise.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace explframe;
using namespace explframe::bench;
using namespace explframe::attack;

namespace {

constexpr std::uint32_t kTrials = 150;

/// Steering trial with a configurable system; returns whether the victim's
/// table page received the planted frame.
bool steer_once(kernel::SystemConfig sys_cfg, std::uint64_t seed,
                bool victim_warm, std::uint32_t noise_ops) {
  sys_cfg.seed = seed;
  kernel::System sys(sys_cfg);
  kernel::Task& attacker = sys.spawn("attacker", 0);
  const crypto::TableCipher& cipher =
      crypto::cipher_for(crypto::CipherKind::kAes128);
  VictimConfig vc;
  vc.key = crypto::random_key(cipher, seed);
  vc.warm_up = victim_warm;
  VictimCipherService victim(sys, 0, cipher, vc);
  victim.start();

  const vm::VirtAddr va = sys.sys_mmap(attacker, 8 * kPageSize);
  for (int p = 0; p < 8; ++p) {
    const std::uint8_t b = 0xEE;
    sys.mem_write(attacker, va + p * kPageSize, {&b, 1});
  }
  const mm::Pfn planted = sys.translate(attacker, va + 3 * kPageSize);
  sys.sys_munmap(attacker, va + 3 * kPageSize, kPageSize);

  if (noise_ops > 0) {
    kernel::Task& n = sys.spawn("noise", 0);
    kernel::NoiseWorkload noise(sys, n, {}, seed ^ 0xABCD);
    noise.run(noise_ops);
  }

  victim.install_tables();
  return sys.translate(victim.task(), victim.table_page_va()) == planted;
}

std::string rate(std::size_t hits) { return rate_cell_wide(hits, kTrials); }

void ablate_lifo() {
  std::cout << "\n(a) pcp list policy (the exploit's core assumption):\n";
  Table t({"pcp policy", "P(steered)"});
  for (const bool lifo : {true, false}) {
    kernel::SystemConfig cfg = quiet_system(0);
    cfg.pcp.lifo = lifo;
    std::size_t hits = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i)
      hits += steer_once(cfg, 1000 + i, true, 0) ? 1 : 0;
    t.row(lifo ? "LIFO (Linux)" : "FIFO (ablated)", rate(hits));
  }
  t.print(std::cout);
  std::cout << "FIFO still steers eventually (the frame waits behind the "
               "refilled batch) but loses head-of-line placement: any "
               "intervening allocation takes the planted frame's slot.\n";

  Table t2({"pcp policy", "noise ops", "P(steered)"});
  for (const bool lifo : {true, false}) {
    for (const std::uint32_t ops : {2u, 8u}) {
      kernel::SystemConfig cfg = quiet_system(0);
      cfg.pcp.lifo = lifo;
      std::size_t hits = 0;
      for (std::uint32_t i = 0; i < kTrials; ++i)
        hits += steer_once(cfg, 1500 + i, true, ops) ? 1 : 0;
      t2.row(lifo ? "LIFO" : "FIFO", ops, rate(hits));
    }
  }
  t2.print(std::cout);
}

void ablate_pcp_high() {
  std::cout << "\n(b) planted-frame fate under additional frees from the "
               "releasing CPU (hot frees bury the head; past `high` the "
               "cache drains its cold end back to buddy):\n";
  Table t({"pcp high", "extra frees", "free temp",
           "P(head still planted)", "P(planted drained to buddy)"});
  for (const std::uint32_t high : {16u, 186u}) {
    for (const std::uint32_t extra : {4u, 32u, 256u}) {
      for (const bool cold : {false, true}) {
        kernel::SystemConfig cfg = quiet_system(0);
        cfg.pcp.high = high;
        std::size_t head_planted = 0, drained = 0;
        for (std::uint32_t i = 0; i < kTrials; ++i) {
          cfg.seed = 2000 + i;
          kernel::System sys(cfg);
          kernel::Task& attacker = sys.spawn("attacker", 0);
          const std::uint32_t pages = extra + 4;
          const vm::VirtAddr va = sys.sys_mmap(attacker, pages * kPageSize);
          for (std::uint32_t p = 0; p < pages; ++p) {
            const std::uint8_t b = 0xEE;
            sys.mem_write(attacker, va + p * kPageSize, {&b, 1});
          }
          const mm::Pfn planted = sys.translate(attacker, va);
          sys.sys_munmap(attacker, va, kPageSize);  // plant
          // Extra frees from the same CPU, one page at a time.
          for (std::uint32_t p = 1; p <= extra; ++p) {
            const mm::Pfn pfn =
                sys.translate(attacker, va + p * kPageSize);
            attacker.space().page_table().unmap(va + p * kPageSize);
            sys.allocator().free_pages(pfn, 0, 0, cold);
          }
          const auto& frame = sys.allocator().frames().at(planted);
          if (frame.state == mm::PageState::kFreeBuddy ||
              frame.state == mm::PageState::kFreeTail) {
            ++drained;
          } else {
            mm::Zone* zone = sys.allocator().zone_of(planted);
            const auto view = zone->pcp(0).peek();
            if (!view.empty() && view.front() == planted) ++head_planted;
          }
        }
        t.row(high, extra, cold ? "cold (tail)" : "hot (head)",
              rate(head_planted), rate(drained));
      }
    }
  }
  t.print(std::cout);
  std::cout << "cold frees leave the planted frame at the hot head "
               "indefinitely; hot frees bury it, and once the cache "
               "overflows `high` it is eventually drained to buddy — the "
               "attack window is bounded by same-CPU free traffic.\n";
}

void ablate_page_table_charging() {
  std::cout << "\n(c) victim warm-up (page-table nodes pre-faulted) vs cold "
               "start, with page-table charging on/off:\n";
  Table t({"page tables charged", "victim warm", "P(table page steered)"});
  for (const bool charged : {true, false}) {
    for (const bool warm : {true, false}) {
      kernel::SystemConfig cfg = quiet_system(0);
      cfg.charge_page_tables = charged;
      std::size_t hits = 0;
      for (std::uint32_t i = 0; i < kTrials; ++i)
        hits += steer_once(cfg, 3000 + i, warm, 0) ? 1 : 0;
      t.row(charged, warm, rate(hits));
    }
  }
  t.print(std::cout);
  std::cout << "with charging on and a cold victim, the first fault's PTE "
               "page consumes the planted frame — the attack must target "
               "warm victims (long-running services), as the paper's "
               "scenario does.\n";
}

void ablate_zero_on_alloc() {
  std::cout << "\n(d) zero-on-allocation (defence-in-depth interaction):\n";
  Table t({"zero on alloc", "victim page still holds attacker data"});
  for (const bool zero : {true, false}) {
    kernel::SystemConfig cfg = quiet_system(0);
    cfg.zero_on_alloc = zero;
    cfg.charge_page_tables = false;
    std::size_t leaked = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i) {
      cfg.seed = 4000 + i;
      kernel::System sys(cfg);
      kernel::Task& a = sys.spawn("a", 0);
      const vm::VirtAddr va = sys.sys_mmap(a, kPageSize);
      const std::uint8_t mark[8] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4};
      sys.mem_write(a, va, mark);
      sys.sys_munmap(a, va, kPageSize);
      kernel::Task& b = sys.spawn("b", 0);
      const vm::VirtAddr vb = sys.sys_mmap(b, kPageSize);
      std::uint8_t out[8] = {};
      sys.mem_read(b, vb, out);
      leaked += std::equal(out, out + 8, mark) ? 1 : 0;
    }
    t.row(zero, rate(leaked));
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  print_banner(std::cout, "EXP-A1: design-choice ablations");
  ablate_lifo();
  ablate_pcp_high();
  ablate_page_table_charging();
  ablate_zero_on_alloc();
  return 0;
}
