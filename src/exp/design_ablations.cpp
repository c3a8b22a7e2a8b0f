// Ablations of the allocator behaviours the exploit relies on:
//   (a) pcp list policy: LIFO (Linux) vs FIFO — the exploit needs LIFO;
//   (b) pcp `high` watermark: how long a planted frame survives cache
//       pressure before being drained back to buddy;
//   (c) page-table charging: a cold victim's first fault spends the planted
//       frame on a PTE page instead of the data page;
//   (d) zero-on-allocation: without it, released attacker data leaks into
//       the victim (and vice versa).
#include <algorithm>
#include <string>
#include <vector>

#include "attack/victim.hpp"
#include "exp/bodies.hpp"
#include "kernel/noise.hpp"

namespace explframe::exp {

using namespace explframe::attack;

namespace {

constexpr std::uint32_t kTrials = 150;

kernel::SystemConfig quiet() {
  return small_machine(scenario::WeakCellProfile::kQuiet, 0);
}

std::string rate(std::size_t hits) { return rate_cell_wide(hits, kTrials); }

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

Table lifo() {
  Table t({"pcp policy", "P(steered)"});
  for (const bool lifo : {true, false}) {
    kernel::SystemConfig cfg = quiet();
    cfg.pcp.lifo = lifo;
    std::size_t hits = 0;
    for (std::uint32_t i = 0; i < kTrials; ++i)
      hits += steer_once(cfg, 1000 + i, true, 0) ? 1 : 0;
    t.row(lifo ? "LIFO (Linux)" : "FIFO (ablated)", rate(hits));
  }
  return t;
}

Table lifo_with_noise() {
  Table t({"pcp policy", "noise ops", "P(steered)"});
  for (const bool lifo : {true, false}) {
    for (const std::uint32_t ops : {2u, 8u}) {
      kernel::SystemConfig cfg = quiet();
      cfg.pcp.lifo = lifo;
      std::size_t hits = 0;
      for (std::uint32_t i = 0; i < kTrials; ++i)
        hits += steer_once(cfg, 1500 + i, true, ops) ? 1 : 0;
      t.row(lifo ? "LIFO" : "FIFO", ops, rate(hits));
    }
  }
  return t;
}

Table pcp_high() {
  Table t({"pcp high", "extra frees", "free temp", "P(head still planted)",
           "P(planted drained to buddy)"});
  for (const std::uint32_t high : {16u, 186u}) {
    for (const std::uint32_t extra : {4u, 32u, 256u}) {
      for (const bool cold : {false, true}) {
        kernel::SystemConfig cfg = quiet();
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
            const mm::Pfn pfn = sys.translate(attacker, va + p * kPageSize);
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
  return t;
}

Table page_table_charging() {
  Table t({"page tables charged", "victim warm", "P(table page steered)"});
  for (const bool charged : {true, false}) {
    for (const bool warm : {true, false}) {
      kernel::SystemConfig cfg = quiet();
      cfg.charge_page_tables = charged;
      std::size_t hits = 0;
      for (std::uint32_t i = 0; i < kTrials; ++i)
        hits += steer_once(cfg, 3000 + i, warm, 0) ? 1 : 0;
      t.row(charged, warm, rate(hits));
    }
  }
  return t;
}

Table zero_on_alloc() {
  Table t({"zero on alloc", "victim page still holds attacker data"});
  for (const bool zero : {true, false}) {
    kernel::SystemConfig cfg = quiet();
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
  return t;
}

}  // namespace

std::vector<Section> design_ablations() {
  const std::string per_row = std::to_string(kTrials) + " trials per row";
  std::vector<Section> out;
  out.push_back({"(a) pcp list policy, the exploit's core assumption (" +
                     per_row + ")",
                 lifo(),
                 "FIFO still steers eventually (the frame waits behind the "
                 "refilled batch) but loses head-of-line placement: any "
                 "intervening allocation takes the planted frame's slot."});
  out.push_back({"(a) pcp list policy with intervening same-CPU noise (" +
                     per_row + ")",
                 lifo_with_noise(), ""});
  out.push_back({"(b) Planted-frame fate under additional frees from the "
                 "releasing CPU (" + per_row + ")",
                 pcp_high(),
                 "Hot frees bury the head; past `high` the cache drains its "
                 "cold end back to buddy. Cold frees leave the planted frame "
                 "at the hot head indefinitely; hot frees bury it, and once "
                 "the cache overflows `high` it is eventually drained to "
                 "buddy — the attack window is bounded by same-CPU free "
                 "traffic."});
  out.push_back({"(c) Victim warm-up (page-table nodes pre-faulted) vs cold "
                 "start, with page-table charging on/off (" + per_row + ")",
                 page_table_charging(),
                 "With charging on and a cold victim, the first fault's PTE "
                 "page consumes the planted frame — the attack must target "
                 "warm victims (long-running services), as the paper's "
                 "scenario does."});
  out.push_back({"(d) Zero-on-allocation, a defence-in-depth interaction (" +
                     per_row + ")",
                 zero_on_alloc(), ""});
  return out;
}

}  // namespace explframe::exp
