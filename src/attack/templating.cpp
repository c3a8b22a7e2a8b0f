#include "attack/templating.hpp"

#include <cstring>
#include <vector>

#include "support/check.hpp"

namespace explframe::attack {

void scan_flips(std::span<const std::uint8_t> data, std::uint8_t pattern,
                vm::VirtAddr base_va, vm::VirtAddr aggressor_lo,
                vm::VirtAddr aggressor_hi, std::vector<FlipRecord>& out) {
  const auto scan_byte = [&](std::size_t off) {
    const auto delta = static_cast<std::uint8_t>(data[off] ^ pattern);
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      if (((delta >> bit) & 1u) == 0) continue;
      FlipRecord rec;
      rec.page_va = base_va + (off / kPageSize) * kPageSize;
      rec.offset = static_cast<std::uint32_t>(off % kPageSize);
      rec.bit = bit;
      rec.to_one = ((data[off] >> bit) & 1u) != 0;
      rec.aggressor_lo = aggressor_lo;
      rec.aggressor_hi = aggressor_hi;
      out.push_back(rec);
    }
  };
  // The scan covers the whole templating buffer after every hammer session,
  // so the loop takes one branch per 64-byte block: the block's eight word
  // differences are OR-ed, and only a block that differs is scanned byte
  // by byte.
  constexpr std::size_t kBlock = 64;
  const std::uint64_t pattern_word = 0x0101010101010101ULL * pattern;
  std::size_t off = 0;
  for (; off + kBlock <= data.size(); off += kBlock) {
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < kBlock; w += 8) {
      std::uint64_t word;
      std::memcpy(&word, data.data() + off + w, 8);
      diff |= word ^ pattern_word;
    }
    if (diff == 0) continue;
    for (std::size_t i = 0; i < kBlock; ++i) scan_byte(off + i);
  }
  for (; off < data.size(); ++off) scan_byte(off);
}

namespace {

// Alternation rounds per timing probe. They are part of the simulated
// templating time, so changing them changes every golden's template_time.
constexpr std::uint64_t kStrideProbes = 8;
constexpr std::uint64_t kPairProbes = 8;
constexpr std::uint64_t kBankCheckProbes = 16;

/// The row-conflict timing channel: alternate `a` and `b` for `probes`
/// rounds and report whether the mean latency sits above the midpoint of
/// row-hit and row-conflict latency (same bank, different rows).
bool rows_conflict(kernel::System& system, kernel::Task& task,
                   vm::VirtAddr a, vm::VirtAddr b, std::uint64_t probes) {
  const auto& t = system.dram().params().timings;
  const vm::VirtAddr pair[2] = {a, b};
  const SimTime total = system.hammer_burst(task, pair, probes);
  // No ties for p >= 3: a pair conflicts on >= 2p-1 or <= 2 of 2p accesses.
  return static_cast<double>(total) / (2.0 * static_cast<double>(probes)) >
         0.5 * static_cast<double>(t.row_hit_ns + t.row_conflict_ns);
}

}  // namespace

std::uint64_t discover_row_stride(kernel::System& system, kernel::Task& task,
                                  vm::VirtAddr base, std::uint64_t limit) {
  const std::uint64_t row_bytes = system.dram().geometry().row_bytes;
  // Probe at several bases and take a majority vote: the first pages of a
  // fresh buffer are often physical-contiguity outliers (their frames were
  // interleaved with the kernel's own page-table allocations).
  for (std::uint64_t stride = row_bytes; 4 * stride <= limit; stride *= 2) {
    int votes = 0;
    for (std::uint64_t frac = 4; frac <= 8; frac += 2) {
      const vm::VirtAddr probe_base =
          base + (limit / frac / row_bytes) * row_bytes;
      if (rows_conflict(system, task, probe_base, probe_base + stride,
                        kStrideProbes))
        ++votes;
    }
    if (votes >= 2) return stride;
  }
  return 0;
}

Templater::Templater(kernel::System& system, kernel::Task& attacker,
                     const TemplateConfig& config)
    : system_(&system),
      attacker_(&attacker),
      config_(config),
      row_bytes_(system.dram().geometry().row_bytes),
      ones_row_(row_bytes_, 0xFF),
      zeros_row_(row_bytes_, 0x00),
      readback_(row_bytes_) {
  EXPLFRAME_CHECK(config.buffer_bytes >= 4 * row_bytes_);
}

void Templater::allocate_buffer() {
  buffer_va_ = system_->sys_mmap(*attacker_, config_.buffer_bytes);
  buffer_pages_ = config_.buffer_bytes / kPageSize;
  // Fault every page in, in ascending order: on a fresh buddy allocator
  // this yields a mostly physically-contiguous buffer.
  for (std::uint64_t p = 0; p < buffer_pages_; ++p) {
    const std::uint8_t b = 0xFF;
    EXPLFRAME_CHECK(
        system_->mem_write(*attacker_, buffer_va_ + p * kPageSize, {&b, 1}));
  }
  row_stride_ = discover_row_stride(*system_, *attacker_, buffer_va_,
                                    config_.buffer_bytes);
  // Under XOR bank hashing no single stride conflicts; the contiguous
  // strategy cannot work then, but random-pair templating still can.
  EXPLFRAME_CHECK_MSG(
      row_stride_ != 0 ||
          config_.strategy == TemplateStrategy::kRandomPairs,
      "could not discover the bank stride by timing");
}

void Templater::probe_row(vm::VirtAddr target_row_va, std::uint8_t pattern,
                          TemplateReport& report) {
  const vm::VirtAddr agg_lo = target_row_va - row_stride_;
  const vm::VirtAddr agg_hi = target_row_va + row_stride_;

  // Fill target row with `pattern`, aggressor rows with its complement
  // (stripe patterns maximise coupling).
  EXPLFRAME_CHECK(pattern == 0xFF || pattern == 0x00);
  const std::vector<std::uint8_t>& victim_fill =
      pattern == 0xFF ? ones_row_ : zeros_row_;
  const std::vector<std::uint8_t>& agg_fill =
      pattern == 0xFF ? zeros_row_ : ones_row_;
  EXPLFRAME_CHECK(system_->mem_write(*attacker_, target_row_va, victim_fill));
  EXPLFRAME_CHECK(system_->mem_write(*attacker_, agg_lo, agg_fill));
  EXPLFRAME_CHECK(system_->mem_write(*attacker_, agg_hi, agg_fill));

  // Hammer on the batched-activation path (identical to per-access).
  const vm::VirtAddr aggressors[2] = {agg_lo, agg_hi};
  system_->hammer_burst(*attacker_, aggressors, config_.hammer_iterations);

  // Scan the target row for bits that changed.
  EXPLFRAME_CHECK(system_->mem_read(*attacker_, target_row_va, readback_));
  scan_flips(readback_, pattern, target_row_va, agg_lo, agg_hi,
             report.flips);
}

TemplateReport Templater::scan() { return scan_until(nullptr); }

TemplateReport Templater::scan_until(
    const std::function<bool(const FlipRecord&)>& good) {
  EXPLFRAME_CHECK_MSG(buffer_va_ != 0, "allocate_buffer() first");
  return config_.strategy == TemplateStrategy::kRandomPairs
             ? scan_random_pairs(good)
             : scan_contiguous(good);
}

TemplateReport Templater::scan_random_pairs(
    const std::function<bool(const FlipRecord&)>& good) {
  TemplateReport report;
  const SimTime start = system_->now();
  Rng rng(config_.seed ^ 0xfeedULL);
  const std::uint64_t rows = config_.buffer_bytes / row_bytes_;
  const std::uint64_t budget = config_.max_rows != 0 ? config_.max_rows : rows;

  // Work one polarity at a time over the whole buffer: fill, hammer random
  // same-bank pairs, rescan after every session.
  std::vector<std::uint8_t> pattern_buf;
  std::vector<std::uint8_t> readback(config_.buffer_bytes);
  std::vector<vm::VirtAddr> flip_pages;
  const int passes = config_.both_polarities ? 2 : 1;
  bool done = false;
  for (int pass = 0; pass < passes && !done; ++pass) {
    const std::uint8_t pattern = pass == 0 ? 0xFF : 0x00;
    pattern_buf.assign(config_.buffer_bytes, pattern);
    EXPLFRAME_CHECK(system_->mem_write(*attacker_, buffer_va_, pattern_buf));
    for (std::uint64_t session = 0; session < budget && !done; ++session) {
      // Find a timing-verified same-bank pair of distinct rows.
      vm::VirtAddr a = 0, b = 0;
      bool have_pair = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        a = buffer_va_ + rng.uniform(rows) * row_bytes_;
        b = buffer_va_ + rng.uniform(rows) * row_bytes_;
        if (a == b) continue;
        if (rows_conflict(*system_, *attacker_, a, b, kPairProbes)) {
          have_pair = true;
          break;
        }
      }
      if (!have_pair) continue;
      ++report.rows_scanned;  // counts hammer sessions in this mode

      const vm::VirtAddr aggressors[2] = {a, b};
      system_->hammer_burst(*attacker_, aggressors, config_.hammer_iterations);

      // Full-buffer rescan: any byte differing from the pattern (outside
      // the aggressor rows themselves, which the probe loop dirtied the
      // row buffers of, not the data) is a new flip.
      EXPLFRAME_CHECK(system_->mem_read(*attacker_, buffer_va_, readback));
      const std::size_t before = report.flips.size();
      scan_flips(readback, pattern, buffer_va_, std::min(a, b),
                 std::max(a, b), report.flips);
      for (std::size_t i = before; i < report.flips.size(); ++i) {
        const FlipRecord& rec = report.flips[i];
        bool known = false;
        for (const vm::VirtAddr pv : flip_pages) known |= pv == rec.page_va;
        if (!known) flip_pages.push_back(rec.page_va);
        if (good && good(rec)) done = true;
        // Restore the pattern so the flip is not double-counted (once per
        // flipped byte, after its last bit).
        const vm::VirtAddr byte_va = rec.page_va + rec.offset;
        if (i + 1 < report.flips.size() &&
            report.flips[i + 1].page_va + report.flips[i + 1].offset ==
                byte_va)
          continue;
        const std::uint8_t fix = pattern;
        EXPLFRAME_CHECK(system_->mem_write(*attacker_, byte_va, {&fix, 1}));
      }
      if (config_.stop_after != 0 && flip_pages.size() >= config_.stop_after)
        done = true;
    }
  }
  report.pages_with_flips = flip_pages.size();
  report.elapsed = system_->now() - start;
  return report;
}

TemplateReport Templater::scan_contiguous(
    const std::function<bool(const FlipRecord&)>& good) {
  TemplateReport report;
  const SimTime start = system_->now();
  // Every row_bytes-sized block of the buffer is one DRAM row of some bank;
  // its same-bank neighbours sit row_stride away on either side.
  const vm::VirtAddr first = buffer_va_ + row_stride_;
  const vm::VirtAddr last = buffer_va_ + config_.buffer_bytes - row_stride_;

  std::vector<vm::VirtAddr> flip_pages;
  for (vm::VirtAddr target = first; target + row_bytes_ <= last;
       target += row_bytes_) {
    if (config_.max_rows != 0 && report.rows_scanned >= config_.max_rows)
      break;
    ++report.rows_scanned;
    // A target whose physical row sits at a bank edge has only one real
    // neighbour; hammering the VA "neighbours" would disturb unrelated rows.
    // Count it as skipped instead of recording a hammered-no-flips row.
    // (Harness-side accounting: the attacker herself would only see the
    // timing check below fail.)
    const dram::DramAddress target_coord =
        system_->dram().mapping().decode(system_->phys_of(*attacker_, target));
    if (target_coord.row == 0 ||
        target_coord.row + 1 >= system_->dram().geometry().rows_per_bank) {
      ++report.rows_skipped_edge;
      continue;
    }
    // Bank sanity check through the timing channel: if the two aggressor
    // rows do not conflict, the VA->PA contiguity assumption broke here.
    if (!rows_conflict(*system_, *attacker_, target - row_stride_,
                       target + row_stride_, kBankCheckProbes)) {
      ++report.rows_skipped_timing;
      continue;
    }

    const std::size_t before = report.flips.size();
    probe_row(target, 0xFF, report);
    if (config_.both_polarities) probe_row(target, 0x00, report);
    bool found_good = false;
    for (std::size_t i = before; i < report.flips.size(); ++i) {
      const vm::VirtAddr pv = report.flips[i].page_va;
      bool known = false;
      for (const vm::VirtAddr existing : flip_pages) known |= existing == pv;
      if (!known) flip_pages.push_back(pv);
      if (good && good(report.flips[i])) found_good = true;
    }
    if (found_good) break;
    if (config_.stop_after != 0 && flip_pages.size() >= config_.stop_after)
      break;
  }
  report.pages_with_flips = flip_pages.size();
  report.elapsed = system_->now() - start;
  return report;
}

SimTime Templater::hammer_aggressors(const FlipRecord& flip) const {
  return hammer_aggressors(flip, config_.hammer_iterations);
}

SimTime Templater::hammer_aggressors(const FlipRecord& flip,
                                     std::uint64_t iterations) const {
  const vm::VirtAddr aggressors[2] = {flip.aggressor_lo, flip.aggressor_hi};
  return system_->hammer_burst(*attacker_, aggressors, iterations);
}

}  // namespace explframe::attack
