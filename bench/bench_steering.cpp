// EXP-T2 — Cross-process frame steering (the §V exploit, allocator level).
//
// The attacker releases template-selected frames; the victim then installs
// its crypto context. Measured: P(victim's table page receives the planted
// frame) vs
//   (a) victim request size,
//   (b) number of frames the attacker releases,
//   (c) same vs different CPU,
//   (d) attacker active vs sleeping through a noisy window (the paper's
//       "must remain active" requirement).
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

struct SteerSpec {
  std::uint32_t victim_pages = 4;
  std::uint32_t released_frames = 1;
  std::uint32_t victim_cpu = 0;  ///< Attacker is always on CPU 0.
  std::uint32_t noise_ops = 0;   ///< Same-CPU noise during the wait window.
  bool attacker_sleeps = false;  ///< Sleep (and let noise run) vs stay active.
};

/// Returns true if the victim's table page landed on a planted frame.
bool run_trial(std::uint64_t seed, const SteerSpec& spec) {
  kernel::System sys(quiet_system(seed));
  kernel::Task& attacker = sys.spawn("attacker", 0);

  const crypto::TableCipher& cipher =
      crypto::cipher_for(crypto::CipherKind::kAes128);
  VictimConfig vc;
  vc.key = crypto::random_key(cipher, seed);
  vc.data_pages = spec.victim_pages;
  VictimCipherService victim(sys, spec.victim_cpu, cipher, vc);
  victim.start();

  // Attacker allocates a working buffer and releases `released_frames`.
  const std::uint32_t buf_pages = std::max(spec.released_frames * 2, 8u);
  const vm::VirtAddr va = sys.sys_mmap(attacker, buf_pages * kPageSize);
  for (std::uint32_t p = 0; p < buf_pages; ++p) {
    const std::uint8_t b = 0xEE;
    sys.mem_write(attacker, va + p * kPageSize, {&b, 1});
  }
  std::vector<mm::Pfn> planted;
  for (std::uint32_t f = 0; f < spec.released_frames; ++f) {
    const vm::VirtAddr pv = va + 2 * f * kPageSize;
    planted.push_back(sys.translate(attacker, pv));
    sys.sys_munmap(attacker, pv, kPageSize);
  }

  // The wait window: if the attacker sleeps, a housekeeping process on the
  // same CPU churns the cache; if it stays active, it keeps the CPU busy
  // and the noise process is held off (modelled as no same-CPU churn).
  if (spec.noise_ops > 0 && spec.attacker_sleeps) {
    kernel::Task& n = sys.spawn("noise", 0);
    kernel::NoiseWorkload noise(sys, n, {}, seed ^ 0x5555);
    noise.run(spec.noise_ops);
  }

  victim.install_tables();
  const mm::Pfn got = sys.translate(victim.task(), victim.table_page_va());
  for (const mm::Pfn p : planted)
    if (p == got) return true;
  return false;
}

std::string measure(const SteerSpec& spec, std::uint32_t base_seed) {
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < kTrials; ++i)
    hits += run_trial(base_seed + i, spec) ? 1 : 0;
  return rate_cell_wide(hits, kTrials);
}

}  // namespace

int main() {
  print_banner(std::cout, "EXP-T2: cross-process page-frame steering (SV)");
  std::cout << "(P that the victim's S-box page lands on a planted frame; " << kTrials
            << " trials per row)\n";

  {
    std::cout << "\n(a) vs victim context size (1 released frame, same CPU):\n";
    Table t({"victim pages", "P(steered)"});
    for (const std::uint32_t pages : {2u, 4u, 8u, 16u, 32u}) {
      SteerSpec s;
      s.victim_pages = pages;
      t.row(pages, measure(s, 1000));
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n(b) vs number of released frames (victim 4 pages, same "
                 "CPU):\n";
    Table t({"released frames", "P(steered)"});
    for (const std::uint32_t frames : {1u, 2u, 4u, 8u}) {
      SteerSpec s;
      s.released_frames = frames;
      t.row(frames, measure(s, 2000));
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n(c) same vs different CPU (the paper's same-CPU "
                 "requirement):\n";
    Table t({"victim CPU", "P(steered)"});
    for (const std::uint32_t cpu : {0u, 1u}) {
      SteerSpec s;
      s.victim_cpu = cpu;
      t.row(cpu == 0 ? "same as attacker" : "different", measure(s, 3000));
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n(d) attacker active vs sleeping through a noisy window "
                 "(the paper's \"must remain active\" requirement):\n";
    Table t({"attacker", "same-CPU noise ops", "P(steered)"});
    for (const std::uint32_t ops : {0u, 8u, 32u, 128u}) {
      SteerSpec active;
      active.noise_ops = ops;
      active.attacker_sleeps = false;
      t.row("active", ops, measure(active, 4000));
      SteerSpec asleep;
      asleep.noise_ops = ops;
      asleep.attacker_sleeps = true;
      t.row("sleeping", ops, measure(asleep, 4000));
    }
    t.print(std::cout);
  }

  std::cout << "\npaper claim: steering succeeds with probability ~1 when "
               "attacker and victim share a CPU and the attacker stays "
               "active; fails cross-CPU; degrades if the attacker sleeps "
               "while other processes allocate.\n";
  return 0;
}
