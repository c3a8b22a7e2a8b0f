#include "attack/spray.hpp"

#include "attack/templating.hpp"
#include "support/check.hpp"

namespace explframe::attack {

SprayReport SprayBaseline::run() {
  SprayReport report;
  const SimTime start = system_->now();
  Rng rng(config_.seed);

  kernel::Task& attacker = system_->spawn("spray-attacker", config_.cpu);
  const crypto::TableCipher& cipher = crypto::cipher_for(config_.cipher);
  if (config_.victim.key.empty())
    config_.victim.key = crypto::random_key(cipher, rng.next());
  VictimCipherService victim(*system_, config_.cpu, cipher, config_.victim);
  victim.start();

  // Victim installs its context first — the attacker has no influence on
  // frame placement in this baseline.
  victim.install_tables();

  // Attacker allocates a buffer and hammers random row pairs inside it.
  const vm::VirtAddr buf = system_->sys_mmap(attacker, config_.buffer_bytes);
  const std::uint64_t pages = config_.buffer_bytes / kPageSize;
  for (std::uint64_t p = 0; p < pages; ++p) {
    const std::uint8_t b = 0x55;
    EXPLFRAME_CHECK(system_->mem_write(attacker, buf + p * kPageSize, {&b, 1}));
  }

  const std::uint32_t row_bytes = system_->dram().geometry().row_bytes;
  const std::uint64_t stride =
      discover_row_stride(*system_, attacker, buf, config_.buffer_bytes);
  EXPLFRAME_CHECK_MSG(stride != 0, "bank stride discovery failed");
  const std::uint64_t rows = (config_.buffer_bytes - 2 * stride) / row_bytes;
  system_->dram().drain_flips();
  for (std::uint32_t i = 0; i < config_.pairs; ++i) {
    // A double-sided pair around a random row of the buffer.
    const std::uint64_t r = rng.uniform(rows);
    const vm::VirtAddr lo = buf + r * row_bytes;
    const vm::VirtAddr aggressors[2] = {lo, lo + 2 * stride};
    system_->hammer_burst(attacker, aggressors, config_.hammer_iterations);
  }
  report.flips_anywhere = system_->dram().drain_flips().size();
  report.victim_corrupted = victim.table_corrupted();
  report.total_time = system_->now() - start;
  return report;
}

}  // namespace explframe::attack
