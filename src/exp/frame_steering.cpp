// §V's exploit at the allocator level: the attacker releases frames, the
// victim installs its crypto context. Measured: the probability that the
// victim's table page receives a planted frame, against victim request
// size, released frames, CPU placement, and an active vs sleeping attacker
// (the paper's "must remain active" requirement).
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

struct SteerSpec {
  std::uint32_t victim_pages = 4;
  std::uint32_t released_frames = 1;
  std::uint32_t victim_cpu = 0;  ///< Attacker is always on CPU 0.
  std::uint32_t noise_ops = 0;   ///< Same-CPU noise during the wait window.
  bool attacker_sleeps = false;  ///< Sleep (and let noise run) vs stay active.
};

/// Returns true if the victim's table page landed on a planted frame.
bool run_trial(std::uint64_t seed, const SteerSpec& spec) {
  kernel::System sys(small_machine(scenario::WeakCellProfile::kQuiet, seed));
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
  return std::find(planted.begin(), planted.end(), got) != planted.end();
}

std::string measure(const SteerSpec& spec, std::uint32_t base_seed) {
  std::size_t hits = 0;
  for (std::uint32_t i = 0; i < kTrials; ++i)
    hits += run_trial(base_seed + i, spec) ? 1 : 0;
  return rate_cell_wide(hits, kTrials);
}

}  // namespace

std::vector<Section> frame_steering() {
  const std::string per_row = std::to_string(kTrials) + " trials per row";
  std::vector<Section> out;

  Table a({"victim pages", "P(steered)"});
  for (const std::uint32_t pages : {2u, 4u, 8u, 16u, 32u}) {
    SteerSpec s;
    s.victim_pages = pages;
    a.row(pages, measure(s, 1000));
  }
  out.push_back({"(a) By victim context size (1 released frame, same CPU; " +
                     per_row + ")",
                 std::move(a), ""});

  Table b({"released frames", "P(steered)"});
  for (const std::uint32_t frames : {1u, 2u, 4u, 8u}) {
    SteerSpec s;
    s.released_frames = frames;
    b.row(frames, measure(s, 2000));
  }
  out.push_back({"(b) By number of released frames (victim 4 pages, same "
                 "CPU; " + per_row + ")",
                 std::move(b), ""});

  Table c({"victim CPU", "P(steered)"});
  for (const std::uint32_t cpu : {0u, 1u}) {
    SteerSpec s;
    s.victim_cpu = cpu;
    c.row(cpu == 0 ? "same as attacker" : "different", measure(s, 3000));
  }
  out.push_back({"(c) Same vs different CPU (the paper's same-CPU "
                 "requirement; " + per_row + ")",
                 std::move(c), ""});

  Table d({"attacker", "same-CPU noise ops", "P(steered)"});
  for (const std::uint32_t ops : {0u, 8u, 32u, 128u}) {
    SteerSpec active;
    active.noise_ops = ops;
    d.row("active", ops, measure(active, 4000));
    SteerSpec asleep;
    asleep.noise_ops = ops;
    asleep.attacker_sleeps = true;
    d.row("sleeping", ops, measure(asleep, 4000));
  }
  out.push_back({"(d) Attacker active vs sleeping through a noisy window (" +
                     per_row + ")",
                 std::move(d),
                 "Paper claim: steering succeeds with probability ~1 when "
                 "attacker and victim share a CPU and the attacker stays "
                 "active; fails cross-CPU; degrades if the attacker sleeps "
                 "while other processes allocate."});
  return out;
}

}  // namespace explframe::exp
